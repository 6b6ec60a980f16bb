"""Deterministic seeded randomness for verification campaigns.

A 64-bit counter-based stream (SplitMix64 output function) feeds
Box-Muller normals, so a campaign's trial set depends only on the 64-bit
seed, never on library versions or evaluation order.  Trial k of a
campaign draws from the sub-seed ``seed ^ k``, which makes campaigns
embarrassingly parallel with order-independent aggregation.

A stream may carry a trial axis: built from a uint64 array of sub-seeds,
it runs one independent stream per entry, and every draw gains the
seed array's shape as leading axes.  Counters advance in lockstep, so
entry k of a batched draw is bit for bit the draw of ``RandomStream(k-th
seed)``: a campaign draws a whole chunk of trials with one array
operation per call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "sub_seed"]

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def sub_seed(seed: int, trial: int) -> int:
    """Sub-seed for trial `trial` of a campaign with master seed `seed`."""
    return (int(seed) ^ int(trial)) & MASK64


def sub_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """Sub-seeds of trials start..stop-1 as a uint64 array (sub_seed per entry)."""
    return np.uint64(int(seed) & MASK64) ^ np.arange(start, stop, dtype=np.uint64)


class RandomStream:
    """Deterministic stream of uniforms and Gaussians from a 64-bit seed,
    or from a uint64 array of seeds with one stream per entry."""

    def __init__(self, seed):
        if isinstance(seed, np.ndarray):
            if seed.dtype != np.uint64:
                raise TypeError(f"seed array must be uint64, got {seed.dtype}")
            self._seed = seed
        else:
            self._seed = np.asarray(np.uint64(int(seed) & MASK64))
        self._counter = 0

    def _raw(self, count: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        # uint64 array arithmetic wraps mod 2^64 without an overflow signal
        z = self._seed[..., None] + idx * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniforms in [0, 1) with 53-bit resolution."""
        return (self._raw(count) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def _normal_blocks(self, count: int, blocks: int) -> np.ndarray:
        """`blocks` successive normals(count) draws, stacked on axis -2."""
        pairs = (count + 1) // 2
        raw = self._raw(blocks * 2 * pairs).reshape(self._seed.shape + (blocks, 2, pairs))
        # u1 shifted into (0, 1] so the log is finite.
        u1 = ((raw[..., 0, :] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (raw[..., 1, :] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        return out[..., :count]

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normals via the Box-Muller transform."""
        return self._normal_blocks(count, 1)[..., 0, :]

    def gaussian_matrix(self, n: int) -> np.ndarray:
        return self.normals(n * n).reshape(self._seed.shape + (n, n))

    def symmetric_matrix(self, n: int) -> np.ndarray:
        """Gaussian matrix symmetrized via (M + M^T)/2."""
        g = self.gaussian_matrix(n)
        return 0.5 * (g + g.swapaxes(-1, -2))

    def symmetric_tuple(self, n: int, m: int) -> np.ndarray:
        """m successive symmetric_matrix draws as one (..., m, n, n) array."""
        g = self._normal_blocks(n * n, m).reshape(self._seed.shape + (m, n, n))
        return 0.5 * (g + g.swapaxes(-1, -2))

    def orthogonal_matrix(self, n: int) -> np.ndarray:
        """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed R."""
        q, r = np.linalg.qr(self.gaussian_matrix(n))
        signs = np.sign(r.diagonal(axis1=-2, axis2=-1))
        signs[signs == 0] = 1.0
        return q * signs[..., None, :]
