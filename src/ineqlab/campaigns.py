"""Seeded verification campaigns.

Trial k of a campaign with master seed `seed` draws everything from the
sub-seed ``seed ^ k``, so summaries are reproducible bit-for-bit and the
trials can be evaluated in any order.  A trial counts as a violation when
its slack falls below -tol, where tol is the report's own relative
tolerance unless a fixed override is given.

Trials run in chunks of consecutive k: one RandomStream over the chunk's
sub-seeds draws all of its inputs as one array with a leading trial axis,
which the stacked kernels validate and evaluate with no per-trial loop.
The chunk size follows from the fixed element budget CHUNK_ELEMENTS, so
memory stays bounded at any trial count, and a chunk's draws equal the
per-trial draws bit for bit, so chunking changes no result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bw import bw_sides, maximize_ratio, t_matrices
from .ddvv import check_members, ddvv_sides
from .errors import InputRejected
from .report import default_tol
from .seeded import RandomStream, sub_seed, sub_seeds

# Element budget of one chunk, counting a DDVV trial as m * m * n * n (its
# pairwise commutator stacks hold about half that each).  Chunks this small
# keep the kernel's arrays near cache size: 2^18 ran 1.2-1.4x slower per
# trial at n, m in 3..12 on a 2-vCPU Xeon VM.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class CampaignSummary:
    trials_run: int
    violations: int
    min_slack: float
    argmin_seed: int
    wall_time_ms: int


class _Tracker:
    """Violation count and the first trial of least slack, merged chunk by chunk."""

    def __init__(self):
        self.violations = 0
        self.min_slack = float("inf")
        self.argmin_seed = 0

    def update(self, slack: np.ndarray, tol, seeds: np.ndarray) -> None:
        self.violations += int(np.count_nonzero(slack < -tol))
        k = int(np.argmin(slack))
        if slack[k] < self.min_slack:
            self.min_slack = float(slack[k])
            self.argmin_seed = int(seeds[k])

    def summary(self, trials: int, t0: float) -> CampaignSummary:
        return CampaignSummary(
            trials_run=trials,
            violations=self.violations,
            min_slack=self.min_slack,
            argmin_seed=self.argmin_seed,
            wall_time_ms=int((time.perf_counter() - t0) * 1000.0),
        )


def _check_config(trials: int, n: int, m: Optional[int] = None) -> None:
    if trials < 1:
        raise InputRejected("trials must be >= 1")
    if not 1 <= n <= 12:
        raise InputRejected(f"n = {n} outside the documented cap 1..12")
    if m is not None and not 1 <= m <= 12:
        raise InputRejected(f"m = {m} outside the documented cap 1..12")


def _chunks(seed: int, trials: int, trial_elements: int):
    """Sub-seed arrays of consecutive trials, CHUNK_ELEMENTS // trial_elements at a time."""
    size = max(1, CHUNK_ELEMENTS // trial_elements)
    for start in range(0, trials, size):
        yield sub_seeds(seed, start, min(start + size, trials))


def run_ddvv_campaign(seed: int, trials: int, n: int, m: int,
                      tol_override: Optional[float] = None) -> CampaignSummary:
    """Random-tuple campaign for the DDVV inequality."""
    _check_config(trials, n, m)
    t0 = time.perf_counter()
    track = _Tracker()
    for seeds in _chunks(seed, trials, m * m * n * n):
        stack = RandomStream(seeds).symmetric_tuple(n, m)
        check_members(stack, seeds)
        lhs, rhs = ddvv_sides(stack)
        track.update(lhs - rhs, tol_override if tol_override is not None else default_tol(lhs),
                     seeds)
    return track.summary(trials, t0)


@dataclass(frozen=True)
class BwCampaignSummary:
    commutator: CampaignSummary
    spectral: CampaignSummary


def run_bw_campaign(seed: int, trials: int, n: int,
                    tol_override: Optional[float] = None) -> BwCampaignSummary:
    """Random-pair campaign checking both forms of the commutator bound."""
    _check_config(trials, n)
    t0 = time.perf_counter()
    pair_track = _Tracker()
    spec_track = _Tracker()
    # a trial's T build holds four n^4-element temporaries
    for seeds in _chunks(seed, trials, 4 * n**4):
        stream = RandomStream(seeds)
        xs = stream.gaussian_matrix(n)
        ys = stream.gaussian_matrix(n)
        lhs, scale = bw_sides(xs, ys, seeds)
        top = np.linalg.eigvalsh(t_matrices(xs / np.linalg.norm(xs, axis=(-2, -1), keepdims=True)))
        for track, side, bound in ((pair_track, lhs, 2.0 * scale), (spec_track, top[:, -1], 2.0)):
            tol = tol_override if tol_override is not None else default_tol(side)
            track.update(bound - side, tol, seeds)
    return BwCampaignSummary(
        commutator=pair_track.summary(trials, t0),
        spectral=spec_track.summary(trials, t0),
    )


def run_search_campaign(seed: int, seeds: int, n: int, max_iters: int):
    """Run the alternating ratio search once per sub-seed; returns all results."""
    if seeds < 1:
        raise InputRejected("need at least one search seed")
    if not 2 <= n <= 12:
        raise InputRejected(f"n = {n} outside the documented cap 2..12")
    return [maximize_ratio(n, sub_seed(seed, k), max_iters) for k in range(seeds)]
