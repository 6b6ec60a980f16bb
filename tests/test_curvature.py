import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ineqlab.curvature import (
    SecondFundamentalForm,
    clifford_model,
    curvature_report,
    finite_c,
    fundamental_report,
    mean_curvature_sq,
    traceless,
    veronese_immersion,
    veronese_tuple,
)
from ineqlab.ddvv import SymmetricTuple, ddvv_slack, group_act
from ineqlab.errors import InputRejected
from ineqlab.linalg import commutator_norms_sq
from ineqlab.seeded import RandomStream, sub_seed


def random_form(stream, n, m, c):
    h = np.stack([stream.symmetric_matrix(n) for _ in range(m)])
    return SecondFundamentalForm.from_array(h, c=c)


class TestAmbientCurvature:
    @pytest.mark.parametrize("c", ["x", "1.5", None, [1.0], [1.0, 2.0], 1j], ids=repr)
    def test_non_number_is_refused(self, c):
        with pytest.raises(InputRejected, match="^ambient curvature c must be finite$"):
            finite_c(c)
        with pytest.raises(InputRejected, match="^ambient curvature c must be finite$"):
            SecondFundamentalForm.from_array(np.zeros((1, 2, 2)), c=c)

    @pytest.mark.parametrize(
        "c", [1, -0.0, np.float32(0.5), np.int64(-3), 1e308, np.array(1.0), np.True_], ids=repr
    )
    def test_real_number_is_its_float(self, c):
        out = finite_c(c)
        assert type(out) is float and out == float(c)


class TestMeanCurvature:
    def test_zero(self):
        form = SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=1.0)
        assert mean_curvature_sq(form) == 0.0

    def test_umbilic(self):
        h = np.zeros((2, 4, 4))
        h[0] = 1.7 * np.eye(4)
        form = SecondFundamentalForm.from_array(h, c=0.0)
        assert mean_curvature_sq(form) == pytest.approx(1.7 ** 2, rel=1e-15)

    def test_models_are_minimal(self):
        assert mean_curvature_sq(clifford_model(1, 2)) == pytest.approx(0.0, abs=1e-28)
        assert mean_curvature_sq(clifford_model(2, 5)) == pytest.approx(0.0, abs=1e-28)
        assert mean_curvature_sq(veronese_tuple()) == pytest.approx(0.0, abs=1e-28)


class TestTraceless:
    def test_umbilic_killed(self):
        h = np.zeros((1, 3, 3))
        h[0] = -2.0 * np.eye(3)
        out = traceless(SecondFundamentalForm.from_array(h, c=1.0))
        assert np.max(np.abs(out.h)) == 0.0

    def test_already_traceless_unchanged(self):
        form = clifford_model(2, 4)
        assert_allclose(traceless(form).h, form.h, atol=0.0)

    def test_removes_mean_curvature(self):
        form = random_form(RandomStream(501), 4, 3, 1.0)
        assert mean_curvature_sq(traceless(form)) <= 1e-28


class TestCurvatureReport:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_totally_geodesic(self, c):
        form = SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=c)
        rep = curvature_report(form)
        assert rep.rho == c
        assert rep.rho_perp == 0.0
        assert abs(rep.geometric_slack) <= 1e-12
        assert abs(rep.shape_slack) <= 1e-12

    def test_umbilic_equality(self):
        h = np.zeros((1, 3, 3))
        h[0] = 0.8 * np.eye(3)
        rep = curvature_report(SecondFundamentalForm.from_array(h, c=1.0))
        assert rep.rho == pytest.approx(1.0 + 0.64, rel=1e-14)
        assert abs(rep.geometric_slack) <= 1e-12

    def test_veronese_values(self):
        rep = curvature_report(veronese_tuple())
        assert rep.rho == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.rho_perp == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rep.mean_curv_sq == 0.0
        assert abs(rep.geometric_slack) <= 1e-10

    def test_random_both_slacks(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(511, k))
            n, m = 2 + k % 5, 1 + k % 6
            c = (-1.0, 0.0, 1.0)[k % 3]
            rep = curvature_report(random_form(stream, n, m, c))
            tol = 1e-9 * (1.0 + abs(rep.mean_curv_sq) + abs(c))
            assert rep.geometric_slack >= -tol
            assert rep.shape_slack >= -tol * (n * n * (n - 1))

    def test_slack_ratio_regression(self):
        # numerically pinned: shape slack / geometric slack = n^2 (n - 1)
        for k in range(300):
            stream = RandomStream(sub_seed(521, k))
            n, m = 2 + k % 5, 2 + k % 4
            rep = curvature_report(random_form(stream, n, m, 1.0))
            if abs(rep.geometric_slack) < 1e-9:
                continue
            ratio = rep.shape_slack / rep.geometric_slack
            assert ratio == pytest.approx(n * n * (n - 1.0), rel=1e-9)

    def test_rho_perp_trace_shift_invariant(self):
        for k in range(300):
            stream = RandomStream(sub_seed(531, k))
            form = random_form(stream, 3 + k % 3, 2 + k % 3, 1.0)
            a = curvature_report(form).rho_perp
            b = curvature_report(traceless(form)).rho_perp
            assert abs(a - b) <= 1e-10 * (1.0 + a)

    def test_rejects_n1(self):
        with pytest.raises(InputRejected, match="n < 2"):
            curvature_report(SecondFundamentalForm.from_array(np.zeros((1, 1, 1)), c=1.0))


def _three_pass_report(form):
    """Reference: the report's three passes over the slices (Gauss term,
    then the traceless form's gap and off-diagonal sums), squares as products."""
    n, m, h = form.n, form.m, form.h
    coeff = 2.0 / (n * (n - 1.0))
    iu, ju = np.triu_indices(n, k=1)
    gauss = 0.0
    for al in range(m):
        diag = np.diag(h[al])
        total = float(np.sum(diag))
        gauss += 0.5 * (total * total - float(np.sum(diag * diag)))
        gauss -= float(np.sum(h[al][iu, ju] * h[al][iu, ju]))
    rho = form.c + coeff * gauss
    perp_sum = 0.5 * float(np.sum(commutator_norms_sq(h)))
    rho_perp = coeff * float(np.sqrt(perp_sum))
    h2 = mean_curvature_sq(form)
    t = traceless(form).h
    gaps = [np.diag(t[al])[iu] - np.diag(t[al])[ju] for al in range(m)]
    diag_part = sum(float(np.sum(g * g)) for g in gaps)
    off_part = sum(float(np.sum(t[al][iu, ju] * t[al][iu, ju])) for al in range(m))
    shape_slack = diag_part + 2.0 * n * off_part - 2.0 * n * float(np.sqrt(perp_sum))
    return (rho, rho_perp, h2, h2 - coeff * gauss - rho_perp, shape_slack)


class TestSinglePassReport:
    def test_bits_equal_the_three_pass_reference(self):
        # exact powers of two move h off the unit scale without rounding it
        k = 0
        for n in range(2, 13):
            for m in range(1, 13):
                h = RandomStream(sub_seed(541, k)).symmetric_tuple(n, m)
                if k % 2:
                    h[k % m] = 0.0  # a zero slice
                k += 1
                for scale in (1.0, 2.0 ** -500, 2.0 ** -60, 2.0 ** 60, 2.0 ** 200):
                    for c in (0.0, 1.0, -0.0, 1e16):
                        form = SecondFundamentalForm.from_array(h * scale, c=c)
                        got = np.array(dataclasses.astuple(curvature_report(form)))
                        want = np.array(_three_pass_report(form))
                        assert got.tobytes() == want.tobytes(), (n, m, scale, c)

    def test_gauss_sum_of_negative_zeros_is_the_loops_zero(self):
        # 1/2 (total^2 - sum diag^2) rounds to -0.0 here; a loop from 0.0 gives
        # gauss 0.0, so rho = -0.0 + coeff * gauss is 0.0
        h = np.array([[[2.0 ** -537, 0.0], [0.0, -(2.0 ** -538)]]])
        form = SecondFundamentalForm.from_array(h, c=-0.0)
        got = np.array(dataclasses.astuple(curvature_report(form)))
        want = np.array(_three_pass_report(form))
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(curvature_report(form).rho)


class TestFundamentalReport:
    def test_zero(self):
        rep = fundamental_report(SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=1.0))
        assert rep.sigma_sq == 0.0
        assert rep.pinch == 0.0

    @pytest.mark.parametrize("r,n", [(1, 2), (2, 4), (1, 3), (3, 5), (2, 5)])
    def test_clifford_boundary(self, r, n):
        form = clifford_model(r, n)
        rep = fundamental_report(form)
        assert abs(rep.sigma_sq - n) <= 1e-12
        assert abs(rep.pinch - n) <= 1e-12
        assert rep.eigenvalues.size == 1

    def test_veronese_boundary(self):
        rep = fundamental_report(veronese_tuple())
        assert_allclose(rep.s, np.diag([2.0 / 3.0, 2.0 / 3.0]), atol=1e-15)
        assert rep.sigma_sq == 4.0 / 3.0
        assert abs(rep.pinch - 2.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gram_matrix_past_the_float_range_rejected(self):
        # with warnings ignored, the overflowing Gram matrix once gave NaN eigenvalues
        h = np.array([[[1e200, 0.0], [0.0, 1e200]], [[0.0, 1e200], [1e200, 0.0]]])
        form = SecondFundamentalForm.from_array(h, c=1.0)
        with pytest.raises(InputRejected, match="input out of the float range"):
            fundamental_report(form)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scales, slices", [
        ((0.9e154, 0.9e154), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),  # ||sigma||^2 past DBL_MAX
        ((5.9e153,) * 3, [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]]),
        ((6.3e153, 6.3e153), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),  # only + lambda_2 overflows
    ], ids=["pair-0.9e154", "triple-7e307", "pair-lambda2"])
    def test_pinch_past_the_float_range_rejected(self, scales, slices):
        # finite Gram entries, but an infinite pinch once read as within the boundary
        h = np.array(scales)[:, None, None] * np.array(slices, dtype=float)
        form = SecondFundamentalForm.from_array(h, c=1.0)
        assert np.isfinite(form.to_tuple().gram()).all()
        with pytest.raises(InputRejected, match=r"^input out of the float range$"):
            fundamental_report(form)

    def test_second_eigenvalue_bound_and_psd(self):
        for k in range(500):
            stream = RandomStream(sub_seed(541, k))
            rep = fundamental_report(random_form(stream, 2 + k % 5, 1 + k % 6, 1.0))
            assert rep.eigenvalues[-1] >= -1e-10 * (1.0 + rep.sigma_sq)
            lam2 = rep.eigenvalues[1] if rep.eigenvalues.size >= 2 else 0.0
            assert lam2 <= 0.5 * rep.sigma_sq + 1e-9 * (1.0 + rep.sigma_sq)
            assert rep.sigma_sq == pytest.approx(float(np.sum(rep.eigenvalues)), rel=1e-10)


class TestToTuple:
    def test_read_only_and_unvalidated(self, monkeypatch):
        form = traceless(random_form(RandomStream(sub_seed(5, 0)), 3, 2, 1.0))
        monkeypatch.setattr(SymmetricTuple, "from_matrices", lambda mats: pytest.fail("revalidated"))
        t = form.to_tuple()
        assert (t.n, t.m) == (3, 2) and np.array_equal(t.matrices, form.h)
        assert not t.matrices.flags.writeable
        assert form.h.flags.writeable  # the read-only view leaves the form's own array alone


class TestCliffordModel:
    def test_smallest(self):
        form = clifford_model(1, 2)
        assert_allclose(form.h[0], np.diag([1.0, -1.0]), atol=0.0)

    def test_balanced_four(self):
        form = clifford_model(2, 4)
        assert_allclose(form.h[0], np.diag([1.0, 1.0, -1.0, -1.0]), atol=0.0)

    def test_trace_free(self):
        for r, n in [(1, 5), (2, 7), (4, 6)]:
            assert abs(np.trace(clifford_model(r, n).h[0])) <= 1e-12

    def test_rejects_bad_split(self):
        with pytest.raises(InputRejected):
            clifford_model(0, 3)
        with pytest.raises(InputRejected):
            clifford_model(3, 3)


class TestVeroneseImmersion:
    def test_pole(self):
        u = veronese_immersion([np.sqrt(3.0), 0.0, 0.0])
        assert_allclose(u, [0.0, 0.0, 0.0, np.sqrt(3.0) / 2.0, 0.5], atol=1e-15)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_point(self):
        u = veronese_immersion([1.0, 1.0, 1.0])
        s3 = 1.0 / np.sqrt(3.0)
        assert_allclose(u, [s3, s3, s3, 0.0, 0.0], atol=1e-15)

    def test_unit_image_and_antipodal(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(551, k))
            v = stream.normals(3)
            if np.linalg.norm(v) < 1e-6:
                continue
            p = v / np.linalg.norm(v) * np.sqrt(3.0)
            u = veronese_immersion(p)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
            np.testing.assert_array_equal(u, veronese_immersion(-p))

    def test_rejects_off_sphere(self):
        with pytest.raises(InputRejected, match="sphere"):
            veronese_immersion([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("p,message", [
        ([1.0, 1.0], "^p must be a 3-vector$"),
        ([[1.0, 1.0, 1.0]], "^p must be a 3-vector$"),
        ([1.0, 1.0, 1.0, 0.0], "^p must be a 3-vector$"),
        ([1.0, 1.0, np.nan], "^p entries must be finite$"),
        ([np.inf, 1.0, 1.0], "^p entries must be finite$"),
        ([1.0, -np.inf, 1.0], "^p entries must be finite$"),
    ], ids=["2-vector", "1x3", "4-vector", "nan", "inf", "minus-inf"])
    def test_rejects_malformed_points(self, p, message):
        with pytest.raises(InputRejected, match=message):
            veronese_immersion(p)


class TestFrameInvariance:
    def test_curvature_outputs_invariant(self):
        for k in range(200):
            stream = RandomStream(sub_seed(561, k))
            n, m = 2 + k % 4, 2 + k % 3
            c = (-1.0, 0.0, 1.0)[k % 3]
            form = random_form(stream, n, m, c)
            p = stream.orthogonal_matrix(n)
            q = stream.orthogonal_matrix(m)
            acted = group_act(form.to_tuple(), p, q)
            acted_form = SecondFundamentalForm.from_array(np.stack(acted.matrices), c=c)
            a, b = curvature_report(form), curvature_report(acted_form)
            for field in ("rho", "rho_perp", "mean_curv_sq", "geometric_slack", "shape_slack"):
                va, vb = getattr(a, field), getattr(b, field)
                assert vb == pytest.approx(va, rel=1e-9, abs=1e-9)

    def test_veronese_tuple_ddvv_equality(self):
        rep = ddvv_slack(veronese_tuple().to_tuple())
        assert abs(rep.slack) <= 1e-12
