import tracemalloc

import numpy as np
import pytest
from conftest import eij, offdiag2
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ineqlab.bw import (
    bw_case_matrix_bound,
    bw_slack,
    bw_spectral_slack,
    maximize_ratio,
    partner_eigenvector,
    small_s1_check,
    svd_reduction,
    t_matrices,
    t_operator,
    t_spectrum,
)
from ineqlab import bw
from ineqlab.errors import InputRejected, NumericalFailure
from ineqlab.linalg import commutator, eigh_descending, frobenius_norm, norm_sq
from ineqlab.seeded import RandomStream, sub_seed, sub_seeds

S2 = 1.0 / np.sqrt(2.0)

# As in test_serialize.py: a failing @given test imports libcst, whose
# warning would otherwise abort the run under filterwarnings = error.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def vec(y):
    return y.reshape(-1)


class TestTOperator:
    def test_nilpotent_generator(self):
        top = t_operator(eij(2, 0, 1))
        h = np.diag([1.0, -1.0])
        assert_allclose(top.apply(h), 2.0 * h, atol=1e-15)
        assert_allclose(top.apply(eij(2, 1, 0)), 2.0 * eij(2, 1, 0), atol=1e-15)
        assert_allclose(top.matrix @ vec(h), vec(2.0 * h), atol=1e-15)

    def test_identity_generator_is_zero(self):
        top = t_operator(np.eye(4) / 2.0)
        assert np.max(np.abs(top.matrix)) == 0.0

    def test_two_spike_spectrum(self):
        assert_allclose(t_spectrum(np.diag([S2, -S2])), [2.0, 2.0, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5])
    def test_two_spike_generator_is_sharp(self, n):
        # the symmetric extremal generator reaches the spectral bound
        x = np.zeros((n, n))
        x[0, 0], x[1, 1] = S2, -S2
        assert t_spectrum(x)[0] == pytest.approx(2.0, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(InputRejected, match="nonzero"):
            t_operator(np.zeros((3, 3)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 6), k=st.integers(-900, 900))
    def test_spectrum_bits_scale_invariant(self, seed, n, k):
        # x is normalized by a norm taken on x / 2^e, so 2^k x gives the
        # same unit matrix, T and spectrum, bit for bit
        x = RandomStream(seed).gaussian_matrix(n)
        assert np.array_equal(t_spectrum(np.ldexp(x, k)), t_spectrum(x))

    def test_matrix_matches_direct_application(self):
        rng = RandomStream(401)
        for _ in range(100):
            n = 2 + int(rng.uniforms(1)[0] * 5)
            top = t_operator(rng.gaussian_matrix(n))
            y = rng.gaussian_matrix(n)
            direct = top.apply(y)
            scale = 1.0 + frobenius_norm(direct)
            assert np.max(np.abs(top.matrix @ vec(y) - vec(direct))) <= 1e-10 * scale

    def test_symmetric_semipositive(self):
        rng = RandomStream(402)
        for _ in range(200):
            n = 2 + int(rng.uniforms(1)[0] * 6)
            top = t_operator(rng.gaussian_matrix(n))
            scale = 1.0 + np.max(np.abs(top.matrix))
            assert np.max(np.abs(top.matrix - top.matrix.T)) <= 1e-10 * scale
            assert np.linalg.eigvalsh(top.matrix)[0] >= -1e-10 * scale

    def test_selfadjointness_identity(self):
        # <Y1, T Y2> = <[X, Y1], [X, Y2]>
        rng = RandomStream(403)
        for _ in range(100):
            n = 3 + int(rng.uniforms(1)[0] * 4)
            top = t_operator(rng.gaussian_matrix(n))
            y1, y2 = rng.gaussian_matrix(n), rng.gaussian_matrix(n)
            lhs = float((y1 * top.apply(y2)).sum())
            rhs = float((commutator(top.x, y1) * commutator(top.x, y2)).sum())
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_stacked_kernels_equal_per_matrix(self):
        # the campaign's stacked commutator, T build and top eigenvalue
        # reproduce the per-matrix results bit for bit
        for n in range(1, 13):
            stream = RandomStream(sub_seeds(404 + n, 0, 3))
            xs, ys = stream.gaussian_matrix(n), stream.gaussian_matrix(n)
            tms = t_matrices(xs / np.linalg.norm(xs, axis=(-2, -1), keepdims=True))
            tops = np.linalg.eigvalsh(tms)[:, -1]
            for x, y, comm, tm, top in zip(xs, ys, commutator(xs, ys), tms, tops):
                assert np.array_equal(comm, commutator(x, y))
                assert np.array_equal(comm, x @ y - y @ x)
                assert np.array_equal(tm, t_operator(x).matrix)
                assert top == t_spectrum(x)[0]

    def test_cached_basis_equals_fresh_identity(self):
        # T built on the cached E_ij stack equals the build on a fresh
        # np.eye(n * n), bit for bit, for one X and for a stack
        for n in range(1, 13):
            xs = RandomStream(sub_seeds(420 + n, 0, 3)).gaussian_matrix(n)
            xs = xs / np.linalg.norm(xs, axis=(-2, -1), keepdims=True)
            for xu in (xs[0], xs):
                x = xu[..., None, :, :]
                eye = np.eye(n * n).reshape(-1, n, n)
                images = commutator(np.swapaxes(x, -1, -2), commutator(x, eye))
                want = np.swapaxes(images.reshape(xu.shape[:-2] + (n * n, n * n)), -1, -2)
                assert t_matrices(xu).tobytes() == want.tobytes()
            basis = bw.basis_matrices(n)
            assert basis is bw.basis_matrices(n) and not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0, 0] = 2.0


class TestSpectralSlack:
    def test_sharp_generator(self):
        rep = bw_spectral_slack(eij(2, 0, 1))
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-12

    def test_identity_generator(self):
        rep = bw_spectral_slack(np.eye(3))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.slack == pytest.approx(2.0, abs=1e-14)

    def test_campaign_with_multiplicity(self):
        for k in range(1000):
            stream = RandomStream(sub_seed(411, k))
            n = 2 + k % 7
            values = t_spectrum(stream.gaussian_matrix(n))
            assert values[0] <= 2.0 + 1e-9
            if values[0] > 1e-6:
                assert (values[0] - values[1]) / values[0] <= 1e-8


class TestBwSlack:
    def test_sharp_pair(self):
        rep = bw_slack(eij(2, 0, 1), eij(2, 1, 0))
        assert rep.lhs == 2.0
        assert rep.rhs == 2.0
        assert rep.slack == 0.0

    def test_commuting_pair(self):
        x = np.diag([1.0, 2.0, 3.0])
        rep = bw_slack(x, x @ x)
        assert rep.lhs == 0.0

    def test_sanity_bound_failure_is_numerical(self, monkeypatch):
        # a commutator kernel off by a factor 2 breaks the constant-3 layer
        monkeypatch.setattr(bw, "commutator", lambda a, b: 2.0 * (a @ b - b @ a))
        with pytest.raises(NumericalFailure, match="constant-3"):
            bw_slack(eij(2, 0, 1), eij(2, 1, 0))

    def test_symmetric_pairs_campaign(self):
        # the symmetric specialization of the bound
        for k in range(2000):
            stream = RandomStream(sub_seed(421, k))
            n = 2 + k % 7
            rep = bw_slack(stream.symmetric_matrix(n), stream.symmetric_matrix(n))
            assert rep.slack >= -rep.tol

    def test_general_campaign(self):
        for k in range(100_000):
            stream = RandomStream(sub_seed(422, k))
            n = 2 + k % 7
            rep = bw_slack(stream.gaussian_matrix(n), stream.gaussian_matrix(n))
            assert rep.slack >= -rep.tol


class TestPartnerEigenvector:
    def test_nilpotent_partner(self):
        y = np.diag([S2, -S2])
        partner = partner_eigenvector(eij(2, 0, 1), y)
        assert_allclose(partner, np.sqrt(2.0) * eij(2, 1, 0), atol=1e-14)
        assert abs(float((y * partner).sum())) <= 1e-14

    def test_diagonal_generator_sign_flip(self):
        # for diagonal symmetric x and a symmetric eigenvector supported on one
        # pair, the partner is the lower-minus-upper sign flip up to scale
        x = np.diag([0.9, 0.1, -0.6])
        x = x / frobenius_norm(x)
        y = offdiag2(S2, 3)
        partner = partner_eigenvector(x, y)
        flip = np.zeros((3, 3))
        flip[0, 1] = -y[0, 1]
        flip[1, 0] = y[1, 0]
        ratio = partner[1, 0] / flip[1, 0]
        assert_allclose(partner, ratio * flip, atol=1e-12)

    def test_zero_eigenvalue_commuting(self):
        x = np.diag([1.0, 2.0])
        partner = partner_eigenvector(x, np.diag([3.0, -1.0]))
        assert_allclose(partner, np.zeros((2, 2)), atol=1e-14)

    def test_rejects_non_eigenvector(self):
        with pytest.raises(InputRejected, match="residual"):
            partner_eigenvector(eij(2, 0, 1), np.array([[1.0, 0.3], [0.2, -0.5]]))


class TestSvdReduction:
    def test_diagonal_generator(self):
        x = np.diag([3.0, 2.0, 1.0])
        y = RandomStream(431).gaussian_matrix(3)
        lam, b, c = svd_reduction(x, y)
        assert_allclose(lam, [3.0, 2.0, 1.0], atol=0.0)
        assert_allclose(b, y, atol=1e-14)
        assert_allclose(c, y, atol=1e-14)

    def test_rank_one_pair(self):
        lam, b, c = svd_reduction(eij(2, 0, 1), eij(2, 1, 0))
        assert_allclose(lam, [1.0, 0.0], atol=0.0)
        diff = np.diag(lam) @ b - c @ np.diag(lam)
        assert norm_sq(diff) == pytest.approx(2.0, abs=1e-12)

    def test_identity_campaign(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(441, k))
            n = 2 + k % 7
            x, y = stream.gaussian_matrix(n), stream.gaussian_matrix(n)
            lam, b, c = svd_reduction(x, y)
            lhs = frobenius_norm(commutator(x, y))
            rhs = frobenius_norm(np.diag(lam) @ b - c @ np.diag(lam))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + lhs)
            ynorm = frobenius_norm(y)
            assert abs(frobenius_norm(b) - ynorm) <= 1e-10 * (1.0 + ynorm)
            assert abs(frobenius_norm(c) - ynorm) <= 1e-10 * (1.0 + ynorm)


class TestSmallS1:
    def test_identity_generator(self):
        rep = small_s1_check(np.eye(3), RandomStream(451).gaussian_matrix(3))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)

    def test_equality_at_balanced_singular_values(self):
        # rotation-like generator: s_1 = s_2 = 1/sqrt(2); the top eigenvector
        # of T achieves the bound exactly
        x = np.array([[0.0, S2], [-S2, 0.0]])
        top_vals = t_spectrum(x)
        assert top_vals[0] == pytest.approx(2.0, abs=1e-12)
        y = np.diag([S2, -S2])
        rep = small_s1_check(x, y)
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_filtered_campaign(self):
        kept = 0
        for k in range(2000):
            stream = RandomStream(sub_seed(461, k))
            n = 2 + k % 7
            x = stream.gaussian_matrix(n)
            s1 = np.linalg.svd(x / frobenius_norm(x), compute_uv=False)[0]
            if s1 * s1 > 0.5:
                continue
            rep = small_s1_check(x, stream.gaussian_matrix(n))
            assert rep.slack >= -rep.tol
            kept += 1
        assert kept > 200

    def test_rejects_dominant_singular_value(self):
        with pytest.raises(InputRejected, match="bw_slack"):
            small_s1_check(eij(2, 0, 1), np.eye(2))


class TestCaseMatrixBound:
    def test_zero_pair(self):
        rep = bw_case_matrix_bound(np.zeros((2, 2)), np.zeros((2, 2)))
        assert rep.lhs == 0.0
        assert rep.slack == 0.0

    def test_probe_pair(self):
        # recorded outcome of the pre-build experiment: with the matrix built
        # exactly as in the spectral proof, this probe sits at equality
        rep = bw_case_matrix_bound(eij(2, 1, 0), eij(2, 0, 1))
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-12

    def test_rejects_nonzero_corner(self):
        with pytest.raises(InputRejected, match="b_11"):
            bw_case_matrix_bound(np.eye(2), np.zeros((2, 2)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_case_matrix_past_the_float_range_rejected(self):
        # with warnings ignored, the overflowing case matrix once gave lhs nan
        b = np.array([[0.0, 1e200], [1e200, 1.0]])
        with pytest.raises(InputRejected, match="input out of the float range"):
            bw_case_matrix_bound(b, b)

    def test_unconstrained_campaign(self):
        # the bound holds standalone for arbitrary (b, c) with b_11 = 0
        for k in range(5000):
            stream = RandomStream(sub_seed(471, k))
            n = 2 + k % 6
            b = stream.gaussian_matrix(n)
            b[0, 0] = 0.0
            c = stream.gaussian_matrix(n)
            rep = bw_case_matrix_bound(b, c)
            assert rep.slack >= -rep.tol

    def test_pipeline_campaign(self):
        # (b, c) produced the way the proof uses them: converged extremal
        # pair, top-eigenspace rotation arranging b_11 = 0
        exercised = 0
        for k in range(40):
            n = 2 + k % 5
            result = maximize_ratio(n, sub_seed(481, k), 300)
            x, y = result.x, result.y
            y1 = commutator(x.T, y.T)
            y1n = frobenius_norm(y1)
            if y1n > 1e-12:
                y1 = y1 / y1n
                _, b_y, _ = svd_reduction(x, y)
                _, b_y1, _ = svd_reduction(x, y1)
                # zero of sin(t) b11(y) + cos(t) b11(y1)
                theta = np.arctan2(b_y1[0, 0], -b_y[0, 0])
                cand = np.sin(theta) * y + np.cos(theta) * y1
            else:
                cand = y
            cand = cand / frobenius_norm(cand)
            lam, b, c = svd_reduction(x, cand)
            if abs(b[0, 0]) > 1e-9:
                continue
            b[0, 0] = 0.0
            rep = bw_case_matrix_bound(b, c)
            assert rep.slack >= -rep.tol
            exercised += 1
        assert exercised >= 30


class TestMaximizeRatio:
    def test_two_by_two_reaches_two(self):
        result = maximize_ratio(2, 12345, 200)
        assert result.best_ratio == pytest.approx(2.0, abs=1e-6)
        assert result.converged

    def test_zero_iters(self):
        result = maximize_ratio(4, 99, 0)
        assert not result.converged
        assert result.iterations == 0
        assert len(result.trajectory) == 1

    @pytest.mark.parametrize("n,max_iters,message", [
        (1, 5, "n = 1 outside the documented cap 2..12"),
        (13, 5, "n = 13 outside the documented cap 2..12"),
        (3, -1, "max_iters must be >= 0"),
    ])
    def test_rejects_configuration(self, n, max_iters, message):
        with pytest.raises(InputRejected, match=f"^{message}$"):
            maximize_ratio(n, 0, max_iters)

    def test_rejects_empty_seed_array(self):
        with pytest.raises(InputRejected, match="^need at least one search seed$"):
            bw.maximize_ratios(3, sub_seeds(0, 0, 0), 5)

    def test_huge_n_refused_unallocated(self):
        # the T build alone would take about 2.4 GB at n = 100
        tracemalloc.start()
        try:
            with pytest.raises(InputRejected):
                maximize_ratio(10**4, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trajectory_monotone_and_bounded(self):
        for k in range(30):
            result = maximize_ratio(2 + k % 5, sub_seed(491, k), 200)
            traj = np.array(result.trajectory)
            assert np.all(np.diff(traj) >= -1e-12)
            assert result.best_ratio <= 2.0 + 1e-9

    @pytest.mark.parametrize("n", [7, 8])
    def test_larger_dimensions(self, n):
        ratios = [maximize_ratio(n, sub_seed(3000 + n, k), 150).best_ratio
                  for k in range(100)]
        assert max(ratios) == pytest.approx(2.0, abs=1e-6)
        assert all(r <= 2.0 + 1e-9 for r in ratios)


def _record_choleskies(monkeypatch):
    """[rows, certified] of each np.linalg.cholesky call, in call order."""
    calls = []
    cholesky = np.linalg.cholesky

    def recorded(a):
        calls.append([len(a), False])
        factor = cholesky(a)
        calls[-1][1] = True
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return calls


def _by_eigh(x):
    """eigh's top eigenvalues and unit eigenmatrices of a stack's T, the bits
    a half-step that falls back returns."""
    values, vectors = eigh_descending(t_matrices(bw.unit_stack(x)))
    return values[:, 0], bw.unit_stack(vectors[:, :, 0].reshape(x.shape))


class TestCertifiedHalfStep:
    """From n = 5 a half-step keeps the warm-started power iterate of a row
    only when its residual and a Cholesky certify it as a top eigenvector;
    every other row falls back to eigh.  Either way it returns the top eigenvalue."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_search_half_steps_reach_the_top(self, monkeypatch, n):
        steps = []
        half_step = bw._top_eigenmatrices

        def recorded(x, start):
            values, vectors = half_step(x, start)
            steps.append((x.copy(), values, vectors))
            return values, vectors

        monkeypatch.setattr(bw, "_top_eigenmatrices", recorded)
        bw.maximize_ratios(n, sub_seeds(5000 + n, 0, 3), 40)
        rows = certified = 0
        for x, values, vectors in steps:
            want, eigh_vectors = _by_eigh(x)
            assert np.all(np.abs(values - want) <= 1e-12 * want)
            rows += len(x)
            certified += int((vectors != eigh_vectors).any(axis=(-2, -1)).sum())
        # n <= 4 always takes eigh; from n = 5 most rows are certified
        assert certified > rows // 2 if n >= 5 else certified == 0

    @pytest.mark.parametrize("n", range(5, 13))
    def test_close_third_eigenvalue_fails_the_residual(self, monkeypatch, n):
        # diag(-1, ..., 0.98, 1) plus a seeded 1e-3 perturbation: lambda_3 is
        # about 0.98 lambda_1, which 128 powers damp only to 0.07 of it
        stream = RandomStream(sub_seeds(6000 + n, 0, 3))
        d = np.linspace(-1.0, 1.0, n)
        d[-2] = 0.98
        x = bw.unit_stack(np.diag(d) + 1e-3 * stream.gaussian_matrix(n))
        start = bw.unit_stack(stream.gaussian_matrix(n))
        spectra = np.linalg.eigvalsh(t_matrices(x))
        assert np.all(spectra[:, -3] >= 0.95 * spectra[:, -1])
        calls = _record_choleskies(monkeypatch)
        values, vectors = bw._top_eigenmatrices(x, start)
        want, eigh_vectors = _by_eigh(x)
        assert calls == []  # no row reached the Cholesky
        assert np.array_equal(values, want) and np.array_equal(vectors, eigh_vectors)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_start_annihilated_by_t_falls_back(self, n):
        x = bw.unit_stack(RandomStream(sub_seeds(7000 + n, 0, 4)).gaussian_matrix(n))
        start = np.broadcast_to(np.eye(n) / np.sqrt(n), x.shape).copy()
        values, vectors = bw._top_eigenmatrices(x, start)
        want, eigh_vectors = _by_eigh(x)
        assert np.array_equal(values, want) and np.array_equal(vectors, eigh_vectors)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_lower_eigenvector_start_fails_the_cholesky(self, monkeypatch, n):
        # T of a diagonal x is diagonal, with eigenvector E_ij at (d_i - d_j)^2:
        # started at E_{0, n-2}, below the top pair E_{0, n-1} and E_{n-1, 0},
        # the power iterate stays E_{0, n-2} and its residual is at rounding level
        d = np.linspace(-1.0, 1.0, n)
        x = (np.diag(d) / np.linalg.norm(d))[None]
        start = eij(n, 0, n - 2)[None]
        calls = _record_choleskies(monkeypatch)
        values, vectors = bw._top_eigenmatrices(x, start)
        want, eigh_vectors = _by_eigh(x)
        assert calls == [[1, False]]  # the row passed the residual, not the Cholesky
        assert np.array_equal(values, want) and np.array_equal(vectors, eigh_vectors)
        assert values[0] == pytest.approx(4.0 / (d @ d), rel=1e-12)
