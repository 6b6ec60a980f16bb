"""Seeded verification campaigns.

Trial k of a campaign with master seed `seed` draws everything from the
sub-seed ``seed ^ k``, so summaries are reproducible bit-for-bit and the
trials can be evaluated in any order: a CampaignSummary keeps the least
slack of the lowest k, whatever order its batches arrive in.  A trial is a
violation unless report.holds, under its scale's relative tolerance or a fixed override.

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
bit the standalone one from its sub-seed: a half-step builds the live
seeds' T matrices once, and from n = 5 keeps each seed's warm-started
power iterate where a residual and a Cholesky certify it as a top
eigenvector; the other seeds, and all at n <= 4, go to one stacked eigh.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from .bw import (BW_CONSTANT, SCREEN_MARGIN, bw_sides, certified_below, maximize_ratios,
                 t_matrices, unit_stack)
from .ddvv import ddvv_sides
from .errors import InputRejected
from .linalg import CHUNK_ELEMENTS, DIM_CAP, commutator, eigvalsh
from .report import holds, tolerance
from .seeded import MASK64, RandomStream, sub_seeds


@dataclass
class CampaignSummary:
    """Trials run, violations and the first trial of least slack, filled by update:
    candidates compare as (slack, k), k = sub-seed ^ seed the trial index, so batches may
    arrive in any order (np.argmin picks a batch's lowest k).  `seed` and `fixed` are not fields."""

    trials_run: int = 0
    violations: int = 0
    min_slack: float = float("inf")
    argmin_seed: int = 0
    seed: InitVar[int] = 0
    fixed: InitVar[Optional[float]] = None

    def __post_init__(self, seed: int, fixed: Optional[float]):
        self._seed, self._fixed = int(seed) & MASK64, fixed

    def update(self, slack: np.ndarray, scale: np.ndarray, seeds: np.ndarray) -> None:
        self.violations += slack.size - int(np.count_nonzero(holds(slack, scale, self._fixed)))
        k = int(slack.argmin())
        if (slack[k], int(seeds[k]) ^ self._seed) < (self.min_slack, self.argmin_seed ^ self._seed):
            self.min_slack = float(slack[k])
            self.argmin_seed = int(seeds[k])


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
    summary = CampaignSummary(trials, seed=seed, fixed=tol_override)
    for seeds in _chunks(seed, trials, m * m * n * n):
        stack = RandomStream(seeds).symmetric_tuple(n, m)
        lhs, rhs = ddvv_sides(stack)
        summary.update(lhs - rhs, lhs, seeds)
    return summary


# Power steps behind each first-chunk trial's lower bound of lambda_max(T).
_POWER_STEPS = 5


def _lead_bounds(xu: np.ndarray) -> np.ndarray:
    """Lower bounds of lambda_max(T) over a stack of unit X, with no T built:
    T = C^T C for C: z -> [X, z], so z's Rayleigh quotient is ||[X, z]||^2 /
    ||z||^2, here for z = T^_POWER_STEPS X^T, and 0 where z vanishes (n = 1,
    normal X).  They only pick the trial solved first and certify nothing."""
    xt = xu.swapaxes(-1, -2)
    z, w = xt, commutator(xu, xt)
    for _ in range(_POWER_STEPS):
        z = commutator(xt, w)
        w = commutator(xu, z)
    num, den = ((a * a).sum(axis=(-2, -1)) for a in (w, z))
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def run_bw_campaign(seed: int, trials: int, n: int,
                    tol_override: Optional[float] = None) -> tuple:
    """Random-pair campaign checking both forms of the commutator bound;
    returns its (commutator, spectral) summaries.

    Pairs are drawn, and their direct sides checked, in chunks on a 16 n^2
    budget; each chunk's T matrices are built and screened in blocks on a
    4 n^4 budget, every trial's T exactly once.  A block's T spectra are solved
    only if a trial could change the spectral summary: a Cholesky certifies
    first that every lambda_max of the block is SCREEN_MARGIN below both the
    least slack's lambda_max so far and BW_CONSTANT + tolerance(0), which no
    violation reaches: one needs lambda > 2 + t under a fixed tolerance t, and
    lambda > 2 + 1e-9 (1 + lambda) > 2 + 1e-9 under the relative one.  The
    first chunk's trial of greatest _lead_bounds, the lead, leaves its block
    for a block of its own, screened first; with nothing recorded yet the
    level is -inf, so it is solved and recorded, and screens from the start.
    A wrong lead costs solves, never a bit of the summary.
    """
    _check_config(trials, n)
    pairs, spectral = (CampaignSummary(trials, seed=seed, fixed=tol_override) for _ in range(2))
    ceiling = BW_CONSTANT + tolerance(0.0, tol_override)
    # a trial's T build holds four n^4-element temporaries; its draw, direct
    # sides and lead bound a few n^2-element ones
    block = max(1, CHUNK_ELEMENTS // (4 * n**4))
    for chunk, seeds in enumerate(_chunks(seed, trials, 16 * n * n)):
        stream = RandomStream(seeds)
        xs = stream.gaussian_matrix(n)
        ys = stream.gaussian_matrix(n)
        lhs, rhs = bw_sides(xs, ys, seeds)
        pairs.update(rhs - lhs, lhs, seeds)
        xu = unit_stack(xs)
        all_rows = np.arange(len(seeds))
        blocks = [all_rows[start:start + block] for start in range(0, len(seeds), block)]
        if chunk == 0:
            lead = int(_lead_bounds(xu).argmax())
            blocks = [all_rows[lead:lead + 1]] + [b[b != lead] for b in blocks]
        for rows in filter(len, blocks):
            tms = t_matrices(xu[rows])
            mu = min(BW_CONSTANT - spectral.min_slack, ceiling) - SCREEN_MARGIN
            if not (mu > 0.0 and certified_below(tms, mu)):
                tops = eigvalsh(tms)[:, -1]
                spectral.update(BW_CONSTANT - tops, tops, seeds[rows])
    return pairs, spectral


def run_search_campaign(seed: int, seeds: int, n: int, max_iters: int):
    """Run the alternating ratio search once per sub-seed, each chunk's seeds in
    lockstep (maximize_ratios checks the configuration); yields the results in
    seed order, one chunk at a time."""
    # a half-step peaks at about four n^4-element arrays per seed, as run_bw_campaign's
    # T build: T and two squares where certified, T, its rows' copy and eigh's where not
    for chunk in _chunks(seed, seeds, 4 * n**4):
        yield from maximize_ratios(n, chunk, max_iters)
