"""Seeded verification campaigns.

Trial k of a campaign with master seed `seed` draws everything from the
sub-seed ``seed ^ k``, so summaries are reproducible bit-for-bit and the
trials can be evaluated in any order: a summary keeps the least slack of
the lowest k, whatever order its batches arrive in.  A trial counts as a
violation when its slack falls below -tol, where tol is the report's own
relative tolerance unless a fixed override is given.

Trials run in chunks of consecutive k: one RandomStream over the chunk's
sub-seeds draws all of its inputs as one array with a leading trial axis,
which the stacked kernels evaluate with no per-trial loop and no validation:
0.5 (g + g^T) is symmetric bit for bit and Box-Muller normals are finite.
The chunk size follows from the fixed element budget CHUNK_ELEMENTS, so
memory stays bounded at any trial count, and a chunk's draws equal the
per-trial draws bit for bit, so chunking changes no result.  A BW campaign
draws its pairs in chunks on 16 n^2 elements per trial and screens their
T matrices in blocks on 4 n^4, first solving the first chunk's likely
largest lambda_max as a block of its own (run_bw_campaign).  The ratio
search runs a chunk's seeds in lockstep the same way, each search bit for
bit the standalone one from its sub-seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bw import bw_sides, maximize_ratios, t_matrices, unit_stack
from .ddvv import ddvv_sides
from .errors import InputRejected
from .linalg import CHUNK_ELEMENTS, DIM_CAP, commutator, eigvalsh
from .report import tolerance
from .seeded import MASK64, RandomStream, sub_seeds


@dataclass(frozen=True)
class CampaignSummary:
    trials_run: int
    violations: int
    min_slack: float
    argmin_seed: int


class _Tracker:
    """Violation count and the first trial of least slack.  Candidates compare as
    (slack, k), k = sub-seed ^ seed the trial index, so batches may arrive in
    any order; within a batch np.argmin already picks the lowest k."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self.violations = 0
        self.min_slack = float("inf")
        self.argmin_seed = 0

    def update(self, slack: np.ndarray, tol, seeds: np.ndarray) -> None:
        self.violations += int(np.count_nonzero(slack < -tol))
        k = int(np.argmin(slack))
        if (slack[k], int(seeds[k]) ^ self.seed) < (self.min_slack, self.argmin_seed ^ self.seed):
            self.min_slack = float(slack[k])
            self.argmin_seed = int(seeds[k])

    def summary(self, trials: int) -> CampaignSummary:
        return CampaignSummary(trials, self.violations, self.min_slack, self.argmin_seed)


def _check_config(trials: int, n: int, m: Optional[int] = None) -> None:
    if trials < 1:
        raise InputRejected("trials must be >= 1")
    if not 1 <= n <= DIM_CAP:
        raise InputRejected(f"n = {n} outside the documented cap 1..{DIM_CAP}")
    if m is not None and not 1 <= m <= DIM_CAP:
        raise InputRejected(f"m = {m} outside the documented cap 1..{DIM_CAP}")


def _chunks(seed: int, trials: int, trial_elements: int):
    """Sub-seed arrays of consecutive trials, CHUNK_ELEMENTS // trial_elements at a
    time; one empty array when trials < 1, which the search kernel refuses."""
    size = max(1, CHUNK_ELEMENTS // max(1, trial_elements))
    for start in range(0, max(1, trials), size):
        yield sub_seeds(seed, start, min(start + size, trials))


def run_ddvv_campaign(seed: int, trials: int, n: int, m: int,
                      tol_override: Optional[float] = None) -> CampaignSummary:
    """Random-tuple campaign for the DDVV inequality."""
    _check_config(trials, n, m)
    track = _Tracker(seed)
    for seeds in _chunks(seed, trials, m * m * n * n):
        stack = RandomStream(seeds).symmetric_tuple(n, m)
        lhs, rhs = ddvv_sides(stack)
        track.update(lhs - rhs, tolerance(lhs, tol_override), seeds)
    return track.summary(trials)


@dataclass(frozen=True)
class BwCampaignSummary:
    commutator: CampaignSummary
    spectral: CampaignSummary


# How far below the least lambda_max(T) that could change the spectral
# summary a chunk must be certified.  For unit X, ||T||_2 <= 4 ||X||_2^2 <= 4
# (each commutator at most doubles a norm), so for 0 < mu <= 4 the matrix
# mu I - T has norm at most 4.  A Cholesky of it that runs to completion
# factors mu I - T + E with ||E||_2 <= gamma_{N+1} N ||mu I - T||_2, about
# 9.3e-12 at N = n^2 = 144 (Higham, Accuracy and Stability of Numerical
# Algorithms, Thm 10.5), so every eigenvalue of T is below mu + 9.3e-12;
# eigvalsh's own error is about N u ||T||_2 = 6.4e-14.  1e-9 is ~100x both.
# mu I - T is formed as -T plus mu on the diagonal: the same numbers but for
# the sign of a zero, which no pivot of the Cholesky depends on.
SCREEN_MARGIN = 1e-9


def _certified_below(tms: np.ndarray, mu: float) -> bool:
    """Whether one stacked Cholesky of mu I - T proves lambda_max < mu + 1e-11
    for every T matrix of the stack."""
    if not mu > 0.0:
        return False
    shifted = -tms
    np.einsum("...ii->...i", shifted)[...] += mu
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


# Power steps behind each first-chunk trial's lower bound of lambda_max(T).
_POWER_STEPS = 5


def _lead_bounds(xu: np.ndarray) -> np.ndarray:
    """Lower bounds of lambda_max(T) over a stack of unit X, with no T built:
    T = C^T C for C: z -> [X, z], so z's Rayleigh quotient is ||[X, z]||^2 /
    ||z||^2, here for z = T^_POWER_STEPS X^T, and 0 where z vanishes (n = 1,
    normal X).  They only pick the trial solved first and certify nothing."""
    xt = np.swapaxes(xu, -1, -2)
    z, w = xt, commutator(xu, xt)
    for _ in range(_POWER_STEPS):
        z = commutator(xt, w)
        w = commutator(xu, z)
    num, den = (np.sum(a * a, axis=(-2, -1)) for a in (w, z))
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def run_bw_campaign(seed: int, trials: int, n: int,
                    tol_override: Optional[float] = None) -> BwCampaignSummary:
    """Random-pair campaign checking both forms of the commutator bound.

    Pairs are drawn, and their direct sides checked, in chunks on a 16 n^2
    budget; each chunk's T matrices are built and screened in blocks on a
    4 n^4 budget, every trial's T exactly once.  A block's T spectra are solved
    only if a trial could change the spectral summary: a Cholesky certifies
    first that every lambda_max of the block is SCREEN_MARGIN below both the
    least slack's lambda_max so far and 2 + tolerance(0), which no violation
    reaches: one needs lambda > 2 + t under a fixed tolerance t, and
    lambda > 2 + 1e-9 (1 + lambda) > 2 + 1e-9 under the relative one.  The
    first chunk's trial of greatest _lead_bounds, the lead, leaves its block
    for a block of its own, screened first; with nothing recorded yet the
    level is -inf, so it is solved and recorded, and screens from the start.
    A wrong lead costs solves, never a bit of the summary.
    """
    _check_config(trials, n)
    pair_track = _Tracker(seed)
    spec_track = _Tracker(seed)
    ceiling = 2.0 + tolerance(0.0, tol_override)
    # a trial's T build holds four n^4-element temporaries; its draw, direct
    # sides and lead bound a few n^2-element ones
    block = max(1, CHUNK_ELEMENTS // (4 * n**4))
    for chunk, seeds in enumerate(_chunks(seed, trials, 16 * n * n)):
        stream = RandomStream(seeds)
        xs = stream.gaussian_matrix(n)
        ys = stream.gaussian_matrix(n)
        lhs, scale, tol = bw_sides(xs, ys, seeds)
        pair_track.update(2.0 * scale - lhs, tol if tol_override is None else tol_override,
                          seeds)
        xu = unit_stack(xs)
        all_rows = np.arange(len(seeds))
        blocks = [all_rows[start:start + block] for start in range(0, len(seeds), block)]
        if chunk == 0:
            lead = int(np.argmax(_lead_bounds(xu)))
            blocks = [all_rows[lead:lead + 1]] + [b[b != lead] for b in blocks]
        for rows in filter(len, blocks):
            tms = t_matrices(xu[rows])
            level = min(2.0 - spec_track.min_slack, ceiling)
            if not _certified_below(tms, level - SCREEN_MARGIN):
                tops = eigvalsh(tms)[:, -1]
                spec_track.update(2.0 - tops, tolerance(tops, tol_override), seeds[rows])
    return BwCampaignSummary(pair_track.summary(trials), spec_track.summary(trials))


def run_search_campaign(seed: int, seeds: int, n: int, max_iters: int):
    """Run the alternating ratio search once per sub-seed, each chunk's seeds in
    lockstep (maximize_ratios checks the configuration); yields the results in
    seed order, one chunk at a time."""
    # as in run_bw_campaign, a search's T build holds four n^4-element temporaries
    for chunk in _chunks(seed, seeds, 4 * n**4):
        yield from maximize_ratios(n, chunk, max_iters)
