"""Chunked campaigns equal the per-trial reference loop exactly, draw
tuples that are symmetric and finite by construction, and keep memory
bounded."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqlab import bw, campaigns
from ineqlab.bw import bw_slack, bw_spectral_slack, t_matrices
from ineqlab.campaigns import (CHUNK_ELEMENTS, run_bw_campaign, run_ddvv_campaign,
                               run_search_campaign)
from ineqlab.cli import main
from ineqlab.ddvv import SymmetricTuple, check_members, ddvv_slack
from ineqlab.errors import InputRejected, NumericalFailure
from ineqlab.linalg import commutator, eigh_descending, frobenius_norm, norm_sq
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

    @pytest.mark.parametrize("seed,trials,n,m", [(3, 40, 6, 6), (5, 2000, 12, 12)])
    def test_working_set_bounded(self, seed, trials, n, m):
        # a chunk's pair commutators are formed in bounded blocks: traced
        # peaks of 746 and 935 KiB when a chunk formed them all at once
        run_ddvv_campaign(seed, trials, n, m)  # warm-up builds the cached pair indices
        tracemalloc.start()
        try:
            run_ddvv_campaign(seed, trials, n, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10


class TestBwCampaign:
    @pytest.mark.parametrize("seed,trials,n,tol", [
        (3, 40, 3, None),
        (-1, 25, 2, 1e-12),
        (2**64 + 5, 1, 4, None),
        (0, 40, 1, None),
        (2**63 + 12345, 3, 10, None),  # n = 10 and 12: one trial per T block
        (-1, 3, 12, 1e-12),
        (9, 40, 2, -1.0),  # demands slack >= 1: some trials violate
        (6, 30, 6, None),  # one chunk, three T blocks of 12 trials at the real budget
        # chunks of several T blocks: 4 trials a block at n = 8, one at 11 and 12
        (5, 40, 8, None),
        (2**63 + 8, 30, 11, None),
        (-3, 40, 12, None),
        (13, 40, 8, 0.0),
        (14, 40, 12, 1e-3),
        (15, 40, 10, -0.5),
    ])
    def test_equals_reference_loop(self, seed, trials, n, tol):
        got = run_bw_campaign(seed, trials, n, tol_override=tol)
        pair, spec = reference_bw(seed, trials, n, tol)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)

    def test_multi_chunk(self, monkeypatch):
        # 3 trials a chunk at n = 3 (16 n^2 elements a trial), in one-trial T blocks
        monkeypatch.setattr(campaigns, "CHUNK_ELEMENTS", 3 * 16 * 3**2)
        assert next(campaigns._chunks(12, 20, 16 * 9)).size == 3
        got = run_bw_campaign(12, 20, 3)
        pair, spec = reference_bw(12, 20, 3)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)

    def test_screen_solves_few_chunks(self, monkeypatch):
        calls = _record_solves(monkeypatch)
        run_bw_campaign(1, 200, 12)  # 200 T blocks of one trial
        assert len(calls["solved"]) <= 2
        assert calls["certified"] >= 198

    @pytest.mark.parametrize("n,trials,lead", [
        # the trial of least bound leads: the screen refuses and solves more
        *(pytest.param(n, 40, None, id=str(n)) for n in (6, 8, 12)),
        # a one-hot bound makes each trial of the (one) chunk the lead in turn: at
        # n = 1 every spectral slack is exactly 2, so only the tie rule keeps trial
        # 0; at n = 8 the lead leaves a block of 4, at n = 12 a block of one
        *(pytest.param(n, trials, lead, id=f"{n}-{trials}-lead{lead}")
          for n, trials in ((1, 10), (3, 10), (8, 40), (12, 10)) for lead in range(trials)),
    ])
    def test_wrong_lead_changes_no_bit(self, monkeypatch, n, trials, lead):
        bounds = campaigns._lead_bounds
        monkeypatch.setattr(campaigns, "_lead_bounds", lambda xu: -bounds(xu) if lead is None
                            else np.eye(len(xu))[lead])
        calls = _record_solves(monkeypatch)
        rows = []
        build = campaigns.t_matrices
        monkeypatch.setattr(campaigns, "t_matrices", lambda xu: rows.append(len(xu)) or build(xu))
        got = run_bw_campaign(31, trials, n)
        assert calls["refused"] >= 1 or lead is not None
        assert sum(rows) == trials
        assert (_fields(got.commutator), _fields(got.spectral)) == reference_bw(31, trials, n)

    @pytest.mark.parametrize("n,trials", [(6, 60), (8, 40), (10, 40)])
    def test_violating_trials_are_solved(self, monkeypatch, n, trials):
        # tol = -1 makes every lambda_max(T) > 1: most trials at n = 6, a few at 8 and 10
        pair, spec = reference_bw(21, trials, n, -1.0)
        tops = [bw_spectral_slack(RandomStream(sub_seed(21, k)).gaussian_matrix(n)).lhs
                for k in range(trials)]
        calls = _record_solves(monkeypatch)
        got = run_bw_campaign(21, trials, n, tol_override=-1.0)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)
        solved = set(np.concatenate(calls["solved"]).tolist())
        violating = [top for top in tops if top > 1.0]
        assert violating and all(top in solved for top in violating)

    @pytest.mark.parametrize("step", [1e-7, -1e-7])
    def test_screen_margin(self, monkeypatch, step):
        # trial 0 leads, and every T build (one trial at n = 12) gets the T of one
        # fixed unit X scaled by 1 + step k: rising, each trial holds a new least
        # slack about 6e-8 below the last and must be solved; falling, no trial
        # after the first may be
        x = RandomStream(sub_seed(5, 0)).gaussian_matrix(12)
        t0 = t_matrices(x[None] / frobenius_norm(x))
        built = []
        monkeypatch.setattr(campaigns, "t_matrices",
                            lambda xu: built.append(1) or t0 * (1.0 + step * len(built)))
        monkeypatch.setattr(campaigns, "_lead_bounds", lambda xu: -np.arange(float(len(xu))))
        calls = _record_solves(monkeypatch)
        got = run_bw_campaign(5, 20, 12)
        assert len(calls["solved"]) == (20 if step > 0 else 1)
        assert got.spectral.argmin_seed == sub_seed(5, 19 if step > 0 else 0)

    @pytest.mark.parametrize("elements,seed,trials,n,tol", [
        (256, 4, 30, 2, None),  # chunks of 4 trials, one T block each
        (2048, 8, 40, 3, None),  # chunks of 14 trials in T blocks of 6
        (2048, 8, 40, 3, -1.0),
        (4096, -2, 25, 4, 1e-12),  # chunks of 16 trials in T blocks of 4
        (64, 11, 9, 1, None),  # n = 1: T = 0, four trials a chunk, every slack 2
    ])
    def test_several_chunks_and_blocks(self, monkeypatch, elements, seed, trials, n, tol):
        monkeypatch.setattr(campaigns, "CHUNK_ELEMENTS", elements)
        got = run_bw_campaign(seed, trials, n, tol_override=tol)
        pair, spec = reference_bw(seed, trials, n, tol)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)

    @pytest.mark.parametrize("n,trials", [(2, 40), (6, 40), (8, 40)])
    def test_violating_lead_counted_once(self, n, trials):
        # tol = -1 makes lambda_max(T) > 1 a violation, which the lead's is
        seeds = next(campaigns._chunks(23, trials, 16 * n * n))
        xu = bw.unit_stack(RandomStream(seeds).gaussian_matrix(n))
        lead = int(np.argmax(campaigns._lead_bounds(xu)))
        assert bw_spectral_slack(xu[lead]).lhs > 1.0
        got = run_bw_campaign(23, trials, n, tol_override=-1.0)
        pair, spec = reference_bw(23, trials, n, -1.0)
        assert (_fields(got.commutator), _fields(got.spectral)) == (pair, spec)

    @pytest.mark.parametrize("elements,trials,n", [
        (None, 1, 1), (None, 37, 3), (None, 10, 8), (None, 40, 12), (2048, 40, 3),
    ])
    def test_each_t_built_once(self, monkeypatch, elements, trials, n):
        if elements is not None:
            monkeypatch.setattr(campaigns, "CHUNK_ELEMENTS", elements)
        rows = []
        build = campaigns.t_matrices
        monkeypatch.setattr(campaigns, "t_matrices", lambda xu: rows.append(len(xu)) or build(xu))
        run_bw_campaign(17, trials, n)
        assert sum(rows) == trials

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lead_bounds_are_lower_bounds(self, n):
        xu = bw.unit_stack(RandomStream(sub_seeds(29, 0, 20)).gaussian_matrix(n))
        bounds = campaigns._lead_bounds(xu)
        tops = np.linalg.eigvalsh(t_matrices(xu))[:, -1]
        assert np.all(bounds >= 0.0) and np.all(bounds <= tops + 1e-12)

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


def _record_solves(monkeypatch):
    """Count np.linalg.cholesky's successes and failures, and record the top
    eigenvalues of each np.linalg.eigvalsh call."""
    calls = {"certified": 0, "refused": 0, "solved": []}
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def recorded_cholesky(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            calls["refused"] += 1
            raise
        calls["certified"] += 1
        return factor

    def recorded_eigvalsh(a):
        values = eigvalsh(a)
        calls["solved"].append(values[..., -1])
        return values

    monkeypatch.setattr(np.linalg, "cholesky", recorded_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
    return calls


def _reference_top_eigenmatrix(x):
    n = x.shape[0]
    values, vectors = eigh_descending(t_matrices(x / frobenius_norm(x)))
    vec = vectors[:, 0].reshape(n, n)
    return float(values[0]), vec / frobenius_norm(vec)


def reference_search(n, seed, max_iters):
    """The per-seed ratio search loop, one eigensolve per half-step and seed."""
    stream = RandomStream(seed)
    x, y = stream.gaussian_matrix(n), stream.gaussian_matrix(n)
    x, y = x / frobenius_norm(x), y / frobenius_norm(y)
    trajectory = [norm_sq(commutator(x, y))]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        _, y = _reference_top_eigenmatrix(x)
        ratio, x = _reference_top_eigenmatrix(y)
        trajectory.append(ratio)
        if trajectory[-1] - trajectory[-2] < 1e-12:
            converged = True
            break
    return tuple(trajectory), x.tobytes(), y.tobytes(), iterations, converged


class TestSearchCampaign:
    """The seeds of a chunk run in lockstep, and each search equals the
    per-seed reference loop bit for bit."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_lockstep_equals_reference_loop(self, n):
        chunk = max(1, CHUNK_ELEMENTS // (4 * n**4))
        seed = 2**63 + 17 * n
        for max_iters in (0, 1, 200):
            # the reference for chunk + 1 seeds holds those of every smaller count
            want = [reference_search(n, sub_seed(seed, k), max_iters) for k in range(chunk + 1)]
            for seeds in sorted({1, chunk - 1, chunk, chunk + 1} - {0}):
                got = list(run_search_campaign(seed, seeds, n, max_iters))
                assert [(r.trajectory, r.x.tobytes(), r.y.tobytes(), r.iterations, r.converged)
                        for r in got] == want[:seeds]

    def test_peak_memory_bounded(self, capsys):
        tracemalloc.start()
        try:
            code = main(["bw-search", "--n", "12", "--trials", "40", "--max-iters", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 8 * 2**20


class TestTracker:
    def test_first_least_slack_wins_within_and_across_chunks(self):
        track = campaigns._Tracker(0)
        track.update(np.array([3.0, 1.0, 1.0]), 0.0, np.array([10, 11, 12], dtype=np.uint64))
        track.update(np.array([2.0, 1.0]), 0.0, np.array([13, 14], dtype=np.uint64))
        assert (track.min_slack, track.argmin_seed) == (1.0, 11)
        track.update(np.array([-0.5]), 1.0, np.array([15], dtype=np.uint64))
        assert (track.violations, track.min_slack, track.argmin_seed) == (0, -0.5, 15)
        track.update(np.array([-2.0, -0.5]), 1.0, np.array([16, 17], dtype=np.uint64))
        assert track.violations == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batch_order_changes_nothing(self, data):
        slack = data.draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.5]), min_size=2,
                                   max_size=40))
        # an exact tie at the least slack, between two trials
        i, j = data.draw(st.lists(st.integers(0, len(slack) - 1), min_size=2, max_size=2,
                                  unique=True))
        slack[i] = slack[j] = min(slack)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(slack) - 1))))
        batches = list(zip([0, *cuts], [*cuts, len(slack)]))
        seed = data.draw(st.integers(-2**64, 2**65))

        def feed(order):
            track = campaigns._Tracker(seed)
            for start, stop in order:
                track.update(np.array(slack[start:stop]), 0.5, sub_seeds(seed, start, stop))
            return track.violations, track.min_slack, track.argmin_seed

        least = min(slack)
        first = (sum(x < -0.5 for x in slack), least, sub_seed(seed, slack.index(least)))
        assert feed(batches) == first
        assert feed(data.draw(st.permutations(batches))) == first


class TestChunkValidation:
    def _stack(self):
        seeds = sub_seeds(41, 0, 4)
        return seeds, RandomStream(seeds).symmetric_tuple(3, 4)

    def test_finite_is_checked_before_symmetric(self):
        _, stack = self._stack()
        stack[0, 2, 0, 1] = np.nan
        stack[0, 0, 0, 1] += 1.0  # an earlier asymmetric member
        with pytest.raises(InputRejected, match="^member 3: entries must be finite"):
            check_members(stack[0])

    def test_names_first_asymmetric_member(self):
        _, stack = self._stack()
        stack[0, 3, 1, 2] += 1e-3
        stack[0, 1, 2, 0] += 1e-3
        with pytest.raises(InputRejected, match="^member 2: not symmetric"):
            check_members(stack[0])

    def test_without_seeds_names_member_only(self):
        _, stack = self._stack()
        stack[0, 3, 0, 1] = np.inf
        with pytest.raises(InputRejected, match="^member 4: entries must be finite"):
            check_members(stack[0])


class TestChunkDraws:
    """run_ddvv_campaign validates none of its draws; these are the two facts
    it relies on, for the first chunk of every (n, m) the campaigns accept."""

    def test_box_muller_bound(self):
        # u1 in (0, 1] has 53-bit resolution, so the radius is at most sqrt(-2 ln 2^-53)
        assert np.sqrt(-2.0 * np.log(2.0**-53)) < 8.58

    @pytest.mark.parametrize("n", range(1, 13))
    def test_symmetric_finite_and_bounded(self, n):
        for m in range(1, 13):
            seeds = next(campaigns._chunks(2**63 + n, 10**6, m * m * n * n))
            stack = RandomStream(seeds).symmetric_tuple(n, m)
            assert np.array_equal(stack, stack.swapaxes(-1, -2))
            assert np.isfinite(stack).all() and np.abs(stack).max() <= 8.58
