"""Seeded streams: the SplitMix64 bits, and a trial axis that draws, entry
for entry, exactly what one stream per seed draws."""

import numpy as np
import pytest

from ineqlab.seeded import RandomStream, sub_seed, sub_seeds

SEEDS = (0, -1, 2**63 + 7, 2**64 + 5)
GRID = [(n, m) for n in range(1, 13) for m in range(1, 13)]


class TestBits:
    def test_uniforms_pinned(self):
        # integer-only path: these bits hold on every machine
        u = RandomStream(2**63 + 99).uniforms(2)
        assert [v.hex() for v in u] == ["0x1.32e79ba95fce0p-3", "0x1.8712aebb2d214p-2"]

    def test_wrapping_signals_nothing(self):
        # SplitMix64 wraps mod 2^64 by design, and uint64 array arithmetic
        # does so with no overflow signal, so _raw needs no np.errstate
        with np.errstate(all="raise"):
            u = RandomStream(2**63 + 99).uniforms(2)
            batch = RandomStream(sub_seeds(2**64 - 1, 0, 5)).symmetric_tuple(3, 2)
        assert [v.hex() for v in u] == ["0x1.32e79ba95fce0p-3", "0x1.8712aebb2d214p-2"]
        assert np.array_equal(batch[4], RandomStream(sub_seed(2**64 - 1, 4)).symmetric_tuple(3, 2))

    def test_seed_reduced_mod_2_64(self):
        assert np.array_equal(RandomStream(-1).uniforms(5), RandomStream(2**64 - 1).uniforms(5))
        assert np.array_equal(RandomStream(5).uniforms(5), RandomStream(2**64 + 5).uniforms(5))

    def test_tuple_is_successive_symmetric_matrices(self):
        for n, m in [(1, 1), (3, 4), (5, 2)]:
            one, other = RandomStream(17), RandomStream(17)
            want = np.stack([other.symmetric_matrix(n) for _ in range(m)])
            assert np.array_equal(one.symmetric_tuple(n, m), want)
            # both streams advanced by the same count
            assert np.array_equal(one.uniforms(3), other.uniforms(3))


class TestTrialAxis:
    def test_sub_seeds_match_sub_seed(self):
        for seed in SEEDS:
            seeds = sub_seeds(seed, 3, 40)
            assert seeds.dtype == np.uint64
            assert [int(s) for s in seeds] == [sub_seed(seed, k) for k in range(3, 40)]

    def test_rejects_signed_seed_array(self):
        with pytest.raises(TypeError, match="uint64"):
            RandomStream(np.arange(3))

    def test_draws_equal_per_seed_streams(self):
        # over n, m in 1..12; odd n * n pads the last Box-Muller pair
        for k, (n, m) in enumerate(GRID):
            seeds = sub_seeds(SEEDS[k % len(SEEDS)], k, k + 3)
            batch = RandomStream(seeds)
            drawn = [batch.symmetric_tuple(n, m), batch.gaussian_matrix(n),
                     batch.symmetric_matrix(n), batch.normals(n * m), batch.uniforms(m)]
            assert [d.shape for d in drawn] == [(3, m, n, n), (3, n, n), (3, n, n),
                                                (3, n * m), (3, m)]
            for j, seed in enumerate(seeds):
                one = RandomStream(int(seed))
                want = [one.symmetric_tuple(n, m), one.gaussian_matrix(n),
                        one.symmetric_matrix(n), one.normals(n * m), one.uniforms(m)]
                for got, ref in zip(drawn, want):
                    assert np.array_equal(got[j], ref), (n, m, int(seed))

    def test_orthogonal_matrix_per_seed(self):
        seeds = sub_seeds(23, 0, 4)
        qs = RandomStream(seeds).orthogonal_matrix(4)
        assert qs.shape == (4, 4, 4)
        for q, seed in zip(qs, seeds):
            assert np.array_equal(q, RandomStream(int(seed)).orthogonal_matrix(4))
            assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)

    def test_two_dimensional_seed_array(self):
        seeds = sub_seeds(31, 0, 6).reshape(2, 3)
        g = RandomStream(seeds).symmetric_tuple(2, 3)
        assert g.shape == (2, 3, 3, 2, 2)
        assert np.array_equal(g[1, 2], RandomStream(int(seeds[1, 2])).symmetric_tuple(2, 3))
