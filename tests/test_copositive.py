import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ineqlab import copositive
from ineqlab.copositive import copositive_oracle, copositive_property_k
from ineqlab.errors import InputRejected
from ineqlab.seeded import RandomStream, sub_seed


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

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_one_kernel_call_per_subset_size(self, monkeypatch, m):
        sizes = []
        kernel = copositive.eigh_descending
        monkeypatch.setattr(copositive, "eigh_descending",
                            lambda stack: sizes.append(stack.shape) or kernel(stack))
        g = RandomStream(sub_seed(333, m)).gaussian_matrix(m)
        assert copositive_property_k(g @ g.T + np.abs(g + g.T)).copositive
        assert sizes == [(math.comb(m, s), s, s) for s in range(1, m + 1)]
        sizes.clear()
        p = 2.5 * np.eye(m) - np.ones((m, m))
        verdict = copositive_property_k(p)
        assert verdict.copositive is (m < 3)
        assert len(sizes) == min(m, 3)
        if m >= 3:
            assert verdict.failing_submatrix == (0, 1, 2)

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
