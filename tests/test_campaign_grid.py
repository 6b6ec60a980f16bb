"""The summaries of a fixed grid of 1170 seeded campaigns, pinned byte for
byte: every seed, tolerance, size and trial count below must reproduce the
golden's JSON exactly, violations and least-slack witnesses included.

Regenerate the golden (only where a summary is meant to change) with

    PYTHONPATH=src python tests/test_campaign_grid.py
"""

import json
import pathlib

from ineqlab.campaigns import run_bw_campaign, run_ddvv_campaign

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_campaign_grid.json"

SEEDS = (0, 7, 2**63 + 5)
TOLS = (None, 0.0, 1e-12, -1e-6, -1.0)
BW_CASES = [(n, trials) for n in range(1, 13) for trials in (1, 2, 3, 10, 37)
            if n < 10 or trials <= 10]
DDVV_CASES = [(n, m, trials) for n, m in ((1, 4), (2, 2), (3, 3), (4, 6), (6, 4), (5, 2), (12, 12))
              for trials in (1, 3, 37)]


def _fields(summary) -> list:
    return [summary.trials_run, summary.violations, summary.min_slack, summary.argmin_seed]


def grid() -> dict:
    """Each campaign's summary fields, keyed by its configuration."""
    out = {}
    for seed in SEEDS:
        for tol in TOLS:
            for n, trials in BW_CASES:
                summary = run_bw_campaign(seed, trials, n, tol)
                out[f"bw seed={seed} tol={tol} n={n} trials={trials}"] = [
                    *map(_fields, summary)]
            for n, m, trials in DDVV_CASES:
                summary = run_ddvv_campaign(seed, trials, n, m, tol)
                out[f"ddvv seed={seed} tol={tol} n={n} m={m} trials={trials}"] = [
                    _fields(summary)]
    return out


def _dump(summaries: dict) -> str:
    """One campaign a line, floats repr'd, so the text pins every bit."""
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in summaries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_grid_size():
    runs = len(SEEDS) * len(TOLS)
    assert (runs * len(BW_CASES), runs * len(DDVV_CASES)) == (855, 315)


def test_grid_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = grid()
    assert list(got) == list(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, (len(changed), changed[:5])
    assert _dump(got) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(_dump(grid()))
