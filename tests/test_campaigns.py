"""Chunked campaigns equal the per-trial reference loop exactly, validate
every drawn tuple, and keep memory bounded."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ineqlab import bw, campaigns
from ineqlab.bw import bw_slack, bw_spectral_slack
from ineqlab.campaigns import CHUNK_ELEMENTS, run_bw_campaign, run_ddvv_campaign
from ineqlab.ddvv import SymmetricTuple, check_members, ddvv_slack
from ineqlab.errors import InputRejected, NumericalFailure
from ineqlab.seeded import RandomStream, sub_seed, sub_seeds


class _Reference:
    """The per-trial tracker rule: count slack < -tol, keep the first least slack."""

    def __init__(self):
        self.violations, self.min_slack, self.argmin_seed = 0, float("inf"), 0

    def update(self, rep, tol_override, tseed):
        tol = tol_override if tol_override is not None else rep.tol
        self.violations += rep.slack < -tol
        if rep.slack < self.min_slack:
            self.min_slack, self.argmin_seed = rep.slack, tseed

    def fields(self, trials):
        return (trials, self.violations, self.min_slack, self.argmin_seed)


def _fields(summary):
    return dataclasses.astuple(summary)[:4]  # all but wall_time_ms


def reference_ddvv(seed, trials, n, m, tol_override=None):
    track = _Reference()
    for k in range(trials):
        tseed = sub_seed(seed, k)
        t = SymmetricTuple.from_matrices(RandomStream(tseed).symmetric_tuple(n, m))
        track.update(ddvv_slack(t), tol_override, tseed)
    return track.fields(trials)


def reference_bw(seed, trials, n, tol_override=None):
    pair, spec = _Reference(), _Reference()
    for k in range(trials):
        tseed = sub_seed(seed, k)
        stream = RandomStream(tseed)
        x = stream.gaussian_matrix(n)
        y = stream.gaussian_matrix(n)
        pair.update(bw_slack(x, y), tol_override, tseed)
        spec.update(bw_spectral_slack(x), tol_override, tseed)
    return pair.fields(trials), spec.fields(trials)


class TestDdvvCampaign:
    @pytest.mark.parametrize("seed,trials,n,m,tol", [
        (0, 300, 3, 3, None),
        (-1, 120, 4, 2, 1e-12),
        (2**64 + 5, 80, 2, 5, None),
        (2**63 + 11, 60, 1, 4, None),
        (7, 1, 5, 5, None),
        (9, 200, 2, 2, -1.0),  # demands slack >= 1: some trials violate
    ])
    def test_equals_reference_loop(self, seed, trials, n, m, tol):
        got = run_ddvv_campaign(seed, trials, n, m, tol_override=tol)
        assert _fields(got) == reference_ddvv(seed, trials, n, m, tol)

    def test_violations_counted(self):
        assert run_ddvv_campaign(9, 200, 2, 2, tol_override=-1.0).violations > 0

    def test_multi_chunk(self):
        trials = 30
        assert trials > CHUNK_ELEMENTS // 12**4  # n = m = 12 runs in several chunks
        got = run_ddvv_campaign(4, trials, 12, 12)
        assert _fields(got) == reference_ddvv(4, trials, 12, 12)

    def test_peak_memory_bounded(self):
        tracemalloc.start()
        try:
            run_ddvv_campaign(5, 20_000, 12, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestBwCampaign:
    @pytest.mark.parametrize("seed,trials,n,tol", [
        (3, 40, 3, None),
        (-1, 25, 2, 1e-12),
        (2**64 + 5, 1, 4, None),
        (0, 40, 1, None),
        (2**63 + 12345, 3, 10, None),  # n = 10 and 12: one trial per chunk
        (-1, 3, 12, 1e-12),
        (9, 40, 2, -1.0),  # demands slack >= 1: some trials violate
        (6, 30, 6, None),  # three chunks of 12 trials at the real budget
    ])
    def test_equals_reference_loop(self, seed, trials, n, tol):
        got = run_bw_campaign(seed, trials, n, tol_override=tol)
        pair, spec = reference_bw(seed, trials, n, tol)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)

    def test_multi_chunk(self, monkeypatch):
        monkeypatch.setattr(campaigns, "CHUNK_ELEMENTS", 64)  # 3 trials a chunk at n = 3
        got = run_bw_campaign(12, 20, 3)
        pair, spec = reference_bw(12, 20, 3)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)

    def test_faulty_kernel_names_trial_seed(self, monkeypatch):
        # a commutator kernel off by a factor 2 breaks the constant-3 layer
        monkeypatch.setattr(bw, "commutator", lambda a, b: 2.0 * (a @ b - b @ a))
        failing = []
        for k in range(40):
            stream = RandomStream(sub_seed(2, k))
            try:
                bw_slack(stream.gaussian_matrix(2), stream.gaussian_matrix(2))
            except NumericalFailure:
                failing.append(sub_seed(2, k))
        assert failing and failing[0] != sub_seed(2, 0)  # not the chunk's first trial
        with pytest.raises(NumericalFailure, match=f"^trial seed {failing[0]}: constant-3"):
            run_bw_campaign(2, 40, 2)


class TestTracker:
    def test_first_least_slack_wins_within_and_across_chunks(self):
        track = campaigns._Tracker()
        track.update(np.array([3.0, 1.0, 1.0]), 0.0, np.array([10, 11, 12], dtype=np.uint64))
        track.update(np.array([2.0, 1.0]), 0.0, np.array([13, 14], dtype=np.uint64))
        assert (track.min_slack, track.argmin_seed) == (1.0, 11)
        track.update(np.array([-0.5]), 1.0, np.array([15], dtype=np.uint64))
        assert (track.violations, track.min_slack, track.argmin_seed) == (0, -0.5, 15)
        track.update(np.array([-2.0, -0.5]), 1.0, np.array([16, 17], dtype=np.uint64))
        assert track.violations == 1


class TestChunkValidation:
    def _stack(self):
        seeds = sub_seeds(41, 0, 4)
        return seeds, RandomStream(seeds).symmetric_tuple(3, 4)

    def test_clean_chunk_passes(self):
        seeds, stack = self._stack()
        check_members(stack, seeds)

    def test_names_seed_of_non_finite_member(self):
        seeds, stack = self._stack()
        stack[2, 2, 0, 1] = np.nan
        stack[1, 0, 0, 1] += 1.0  # an earlier asymmetric member: finiteness is checked first
        with pytest.raises(InputRejected,
                           match=f"^trial seed {sub_seed(41, 2)}, member 3: entries must be finite"):
            check_members(stack, seeds)

    def test_names_seed_of_asymmetric_member(self):
        seeds, stack = self._stack()
        stack[3, 0, 1, 2] += 1e-3
        stack[1, 1, 2, 0] += 1e-3
        with pytest.raises(InputRejected,
                           match=f"^trial seed {sub_seed(41, 1)}, member 2: not symmetric"):
            check_members(stack, seeds)

    def test_without_seeds_names_member_only(self):
        _, stack = self._stack()
        stack[0, 3, 0, 1] = np.inf
        with pytest.raises(InputRejected, match="^member 4: entries must be finite"):
            check_members(stack[0])
