import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ineqlab import copositive
from ineqlab.copositive import (
    SIGN_ZERO_TOL,
    CopositivityVerdict,
    copositive_oracle,
    copositive_property_k,
)
from ineqlab.errors import InputRejected
from ineqlab.linalg import as_symmetric, eigh_descending, frobenius_norm
from ineqlab.seeded import RandomStream, sub_seed


def violates(p, subsets, neg_eps):
    """Whether the principal submatrices on `subsets` hold a violation."""
    pm = as_symmetric(p, "p")
    stack = np.array([pm[np.ix_(s, s)] for s in subsets])
    values, vectors = eigh_descending(stack)
    mixed = np.any(vectors > SIGN_ZERO_TOL, axis=1) & np.any(vectors < -SIGN_ZERO_TOL, axis=1)
    return bool(np.any((values < -neg_eps) & ~mixed))


def bottom_up_scan(p):
    """The subsets of each stack the property-K scan solves, for a p with
    no PSD-plus-nonnegative certificate, from first principles: p itself,
    returning when its own eigvalsh is >= -neg_eps/2, then every subset of
    each size from 1 up, stopping at the first size with a violation."""
    m = p.shape[0]
    neg_eps = 1e-10 * (1.0 + frobenius_norm(p))
    full = tuple(range(m))
    stacks = [[full]]
    if np.linalg.eigvalsh(0.5 * (p + p.T))[0] >= -0.5 * neg_eps:
        return stacks
    for size in range(1, m):
        subsets = list(itertools.combinations(range(m), size))
        stacks.append(subsets)
        if violates(p, subsets, neg_eps):
            break
    return stacks


def full_scan(p):
    """Property K over every principal submatrix, p last."""
    pm = as_symmetric(p, "p")
    m = pm.shape[0]
    neg_eps = 1e-10 * (1.0 + frobenius_norm(pm))
    for size in range(1, m + 1):
        subsets = np.array(list(itertools.combinations(range(m), size)))
        values, vectors = eigh_descending(pm[subsets[:, :, None], subsets[:, None, :]])
        mixed = np.any(vectors > SIGN_ZERO_TOL, axis=1) & np.any(vectors < -SIGN_ZERO_TOL, axis=1)
        bad = np.flatnonzero((values < -neg_eps) & ~mixed)
        if bad.size:
            row, k = divmod(int(bad[0]), size)
            certificate = np.zeros(m)
            certificate[subsets[row]] = np.abs(vectors[row, :, k])
            verified = float(certificate @ pm @ certificate) < 0.0
            return CopositivityVerdict(False, certificate if verified else None,
                                       tuple(subsets[row].tolist()))
    return CopositivityVerdict(True)


def equivalence_inputs():
    """(family, p) over m = 1..12: PSD plus nonnegative, a planted negative
    pair, Gaussian, rank-deficient g g^T, a PSD matrix with a positive null
    vector shifted down by a fraction of neg_eps (on either side of the
    neg_eps/2 margin and of neg_eps), the tied spectra J - I, -I, 0 and
    (k - 1/2) I - J, and at m = 7 and 12 D - J, which is PSD on a subset S
    iff sum_S 1/d_i <= 1."""
    for m in range(1, 13):
        stream = RandomStream(sub_seed(6001, m))
        for _ in range(12 if m <= 8 else 4):
            g = stream.gaussian_matrix(m)
            p = g @ g.T + np.abs(stream.symmetric_matrix(m))
            yield "psd+nonneg", p
            q = p.copy()
            i = int(stream.uniforms(1)[0] * m)
            j = (i + 1) % m
            q[i, j] = q[j, i] = -np.sqrt(p[i, i] * p[j, j]) - 0.5
            yield "planted", q
            yield "gaussian", stream.symmetric_matrix(m)
        for rank in range(0, m, 3):
            g = stream.gaussian_matrix(m)[:, :rank]
            yield "rank-deficient", g @ g.T
        u = 1.0 + stream.uniforms(m)
        b = stream.gaussian_matrix(m)
        b -= np.outer(u, u @ b) / (u @ u)
        gram = b @ b.T
        for frac in (0.25, 0.49, 0.51, 0.99, 1.01, 1.5):
            shift = frac * 1e-10 * (1.0 + frobenius_norm(gram))
            yield "shifted", gram - shift * np.eye(m)
        ones = np.ones((m, m))
        yield "J - I", ones - np.eye(m)
        yield "-I", -np.eye(m)
        yield "0", np.zeros((m, m))
        if m in (7, 12):
            u = RandomStream(sub_seed(335, 366)).uniforms(m)
            yield "D - J", np.diag(1.0 / (0.1 + 0.3 * u)) - ones
        for k in sorted({1, 2, m // 2, m} if m > 8 else range(1, m + 1)):
            yield "(k - 1/2) I - J", (k - 0.5) * np.eye(m) - ones


class TestPropertyK:
    def test_indefinite_but_copositive(self):
        # eigenvalue -1 comes with the mixed-sign eigenvector (1, -1)
        verdict = copositive_property_k([[1.0, 2.0], [2.0, 1.0]])
        assert verdict.copositive
        assert verdict.certificate is None

    def test_negative_offdiagonal(self):
        verdict = copositive_property_k([[0.0, -1.0], [-1.0, 0.0]])
        assert not verdict.copositive
        assert verdict.failing_submatrix == (0, 1)
        x = verdict.certificate
        assert np.all(x >= 0.0)
        assert float(x @ np.array([[0.0, -1.0], [-1.0, 0.0]]) @ x) < 0.0

    def test_negative_diagonal_detected_by_singleton(self):
        verdict = copositive_property_k(np.diag([1.0, -0.5, 2.0]))
        assert not verdict.copositive
        assert verdict.failing_submatrix == (1,)

    def test_positive_semidefinite(self):
        rng = RandomStream(301)
        for _ in range(50):
            g = rng.gaussian_matrix(4)
            assert copositive_property_k(g @ g.T).copositive

    def test_accepted_input_is_not_revalidated(self):
        # p passes as_symmetric (defect 1e-8 <= 1e-12 * (1 + 1e6)); its
        # submatrix on {1, 2} alone would not, and must not be checked again
        p = np.diag([1e6, 1.0, 1.0])
        p[2, 1] = 1e-8
        verdict = copositive_property_k(p)
        assert verdict.copositive
        assert verdict.certificate is None

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_one_kernel_call_per_subset_size(self, monkeypatch, m):
        stacks, singles = [], []
        kernel = copositive.eigh_descending

        def record(a):
            # the scan solves (count, s, s) stacks; the certificate single matrices
            (stacks if a.ndim == 3 else singles).append(a)
            return kernel(a)

        monkeypatch.setattr(copositive, "eigh_descending", record)

        def solved_sizes(p):
            stacks.clear()
            singles.clear()
            verdict = copositive_property_k(p)
            sizes = [a.shape[-1] for a in stacks]
            assert len(sizes) == len(set(sizes))  # at most one kernel call per size
            return verdict, sizes

        # PSD plus nonnegative: p itself or its certificate decides at once
        g = RandomStream(sub_seed(333, m)).gaussian_matrix(m)
        verdict, sizes = solved_sizes(g @ g.T + np.abs(g + g.T))
        assert verdict.copositive
        assert sizes == [m]
        assert len(singles) <= copositive.SPN_STEPS
        # 2.5 I - J: PSD for m < 3, else no certificate and the exact stacks
        p = 2.5 * np.eye(m) - np.ones((m, m))
        verdict, sizes = solved_sizes(p)
        assert verdict.copositive is (m < 3)
        assert len(singles) == (copositive.SPN_STEPS if m >= 3 else 0)
        want = bottom_up_scan(p)
        assert len(stacks) == len(want)
        for got, subsets in zip(stacks, want):
            assert np.array_equal(got, np.array([p[np.ix_(s, s)] for s in subsets]))
        if m >= 3:
            assert verdict.failing_submatrix == (0, 1, 2)

    def test_equals_full_scan(self):
        families = {}
        for family, p in equivalence_inputs():
            got, want = copositive_property_k(p), full_scan(p)
            assert (got.copositive, got.failing_submatrix) == \
                (want.copositive, want.failing_submatrix), family
            assert (got.certificate is None) == (want.certificate is None), family
            if want.certificate is not None:
                assert np.array_equal(got.certificate, want.certificate), family
            families.setdefault(family, []).append(want.copositive)
        assert sum(map(len, families.values())) >= 500
        assert all(families["psd+nonneg"]) and not any(families["planted"])
        for family in ("gaussian", "shifted"):
            assert any(families[family]) and not all(families[family])

    def test_psd_plus_nonnegative_certificate(self):
        def certified(p):
            pm = as_symmetric(p, "p")
            values, vectors = eigh_descending(pm)
            norm = frobenius_norm(pm)
            return copositive._psd_plus_nonnegative(
                pm, values, vectors, copositive.SPN_SHIFT * norm, 0.5e-10 * (1.0 + norm))

        # g g^T + |g + g^T| with a negative eigenvalue: certified, decided at once
        g = RandomStream(sub_seed(334, 12)).gaussian_matrix(12)
        p = g @ g.T + np.abs(g + g.T)
        assert np.linalg.eigvalsh(p)[0] < 0.0
        assert certified(p)
        assert copositive_property_k(p) == CopositivityVerdict(True)
        # the Horn matrix is copositive but not PSD plus nonnegative: the scan decides
        horn = np.array([[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
                         [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]], dtype=float)
        assert not certified(horn)
        assert copositive_property_k(horn) == full_scan(horn) == CopositivityVerdict(True)
        # a matrix that is not copositive has no such decomposition
        q = p.copy()
        q[0, 1] = q[1, 0] = -np.sqrt(p[0, 0] * p[1, 1]) - 0.5
        assert not certified(q)
        assert copositive_property_k(q).failing_submatrix == (0, 1)

    def test_one_solve_alive_at_a_time(self):
        # J - I is neither PSD nor certified and holds no violation, so all
        # 2^16 - 1 submatrices are solved; freeing each size before the
        # next stack keeps the peak near two stacks
        p = np.ones((16, 16)) - np.eye(16)
        tracemalloc.start()
        try:
            assert copositive_property_k(p).copositive
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_huge_entries(self):
        # ||p||^2 overflows; the prescaled norm keeps neg_eps finite
        p = np.diag([1e200, -1e200])
        verdict = copositive_property_k(p)
        assert not verdict.copositive
        assert verdict.failing_submatrix == (1,)
        assert np.array_equal(verdict.certificate, [0.0, 1.0])
        oracle = copositive_oracle(p, 4)
        assert not oracle.copositive
        assert np.array_equal(oracle.certificate, [0.0, 1.0])

    def test_dimension_cap(self):
        with pytest.raises(InputRejected, match="oracle"):
            copositive_property_k(np.eye(17))


class TestOracle:
    def test_negative_offdiagonal_minimizer(self):
        p = np.array([[0.0, -1.0], [-1.0, 0.0]])
        verdict = copositive_oracle(p, 10)
        assert not verdict.copositive
        assert_allclose(verdict.certificate, [0.5, 0.5], atol=1e-9)
        assert float(verdict.certificate @ p @ verdict.certificate) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_identity(self):
        assert copositive_oracle(np.eye(3), 8).copositive

    def test_rejects_small_resolution(self):
        with pytest.raises(InputRejected, match="resolution"):
            copositive_oracle(np.eye(2), 1)

    def test_refinement_beats_coarse_lattice(self):
        # simplex minimum -5.7e-3 at x = (0.5627, 0.4373); every point of the
        # resolution-5 lattice is positive, so only the gradient polish can
        # certify non-copositivity
        p = np.array([[1.0, -1.3], [-1.3, 1.66]])
        lattice = np.stack([np.linspace(0, 1, 6), np.linspace(1, 0, 6)], axis=1)
        assert np.all(np.einsum("ki,ij,kj->k", lattice, p, lattice) > 0.0)
        verdict = copositive_oracle(p, 5)
        assert not verdict.copositive
        value = float(verdict.certificate @ p @ verdict.certificate)
        assert value < -1e-3

    def test_refinement_bits(self):
        # the projected-gradient loop on numpy arrays, as the oracle ran it
        def numpy_refine(pm, x, step):
            x = x.copy()
            for _ in range(500):
                nxt = copositive._project_simplex(x - step * (2.0 * pm @ x))
                if float(np.max(np.abs(nxt - x))) < 1e-15:
                    return nxt
                x = nxt
            return x

        moved = 0
        for k in range(200):
            stream = RandomStream(sub_seed(312, k))
            m = 2 + k % 5
            pm = stream.symmetric_matrix(m) * 10.0 ** (k % 7 - 3)
            x = stream.uniforms(m)
            x /= x.sum()
            step = 0.5 / (frobenius_norm(pm) + 1.0)
            want = numpy_refine(pm, x, step)
            assert np.array_equal(copositive._refine(pm, x, step), want), k
            moved += not np.array_equal(want, x)
        assert moved > 150

    def test_cross_validation_small(self):
        for k in range(300):
            stream = RandomStream(sub_seed(311, k))
            p = stream.symmetric_matrix(3)
            assert copositive_property_k(p).copositive == copositive_oracle(p, 24).copositive

    def test_oversized_lattice_rejected_before_building(self):
        # m = 8 at resolution 40 would hold C(47, 7) * 8 = 5.1e8 entries
        tracemalloc.start()
        try:
            with pytest.raises(InputRejected, match="over the budget of 4194304"):
                copositive_oracle(np.eye(8), 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert (8, 40) not in copositive._LATTICE_CACHE

    @pytest.mark.parametrize("m, resolution", [(3, 400), (4, 60)])
    def test_lattice_build_peak(self, monkeypatch, m, resolution):
        # the bar gaps go straight into the lattice, so the build peaks
        # under twice the lattice it returns
        monkeypatch.setattr(copositive, "_LATTICE_CACHE", {})
        tracemalloc.start()
        try:
            lattice = copositive._simplex_lattice(m, resolution)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * lattice.nbytes

    @pytest.mark.parametrize("m, resolution", [(2, 7), (3, 40), (4, 9), (6, 5)])
    def test_lattice_bits(self, monkeypatch, m, resolution):
        # same bits as the padded np.diff construction
        monkeypatch.setattr(copositive, "_LATTICE_CACHE", {})
        slots = resolution + m - 1
        bars = np.array(list(itertools.combinations(range(slots), m - 1)))
        bars = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
        want = (np.diff(bars, axis=1) - 1) / float(resolution)
        assert np.array_equal(copositive._simplex_lattice(m, resolution), want)

    def test_lattice_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(copositive, "_LATTICE_CACHE", {})
        budget = 1 << 22
        cache_keys = []
        # m = 2 lattices of 3e6, 2e6 and 1e6 entries, then the largest one in use
        for key in [(2, 1_500_000), (2, 1_000_000), (2, 500_000), (4, 40)]:
            lattice = copositive._simplex_lattice(*key)
            assert copositive._LATTICE_CACHE[key] is lattice
            assert sum(a.size for a in copositive._LATTICE_CACHE.values()) <= budget
            cache_keys.append(list(copositive._LATTICE_CACHE))
        assert cache_keys == [[(2, 1_500_000)], [(2, 1_000_000)],
                              [(2, 1_000_000), (2, 500_000)],
                              [(2, 1_000_000), (2, 500_000), (4, 40)]]
        # m = 4 at resolution 40 (12341 points) stays cached
        assert lattice.shape == (12341, 4)
        assert copositive._simplex_lattice(3, 40) is not lattice
        assert copositive._simplex_lattice(4, 40) is lattice
