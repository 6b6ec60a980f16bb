"""The ineqlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  The benchmark
drives the public entry point ``ineqlab.cli.main(argv)`` in-process from
``src/``, one command at a time (a closed loop with one client and no
threads of its own).  It:

1. draws the workload's inputs from ``--seed`` with numpy's
   ``default_rng`` and writes them under ``.bench_work/``;
2. measures set-up in SETUP_SAMPLES fresh interpreters (import plus the
   first op of each command kind) and reports the median;
3. runs the measurement in one more fresh interpreter (``child.py``), so
   set-up, caches and peak memory belong to that workload;
4. prints diagnostics, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

An op fails when its exit code is not 0, its JSON is malformed, its
verdict contradicts how its input was built, or its bytes differ from the
warm-up pass; ``failed / attempted`` is the fail ratio.  Latency and
throughput are scaled to a reference host speed probed between cycles
(``child.host_speed``; the raw speed is recorded); set-up time and
per-layer times are raw.  A layer the workload never calls reads 0 in the
traced run.  BLAS threads are left at the environment's default and
recorded, never set.  Each run also writes its full record (fingerprint,
metrics, predictions) to ``.bench_work/results/``; a traced run writes its
spans there too.

Workloads, why each was chosen and its layer -> end-to-end predictions
are in ``workloads.py``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)

from workloads import WORKLOADS, generate  # noqa: E402


def run_child(workdir: str, ops_path: str, mode: str, seconds: float, trace: int,
              spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC, "--root", ROOT,
           "--ops", ops_path, "--mode", mode, "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ineqlab", "cli.py")):
        sys.stderr.write(f"bench: {SRC} holds no ineqlab sources; run from a full checkout\n")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-pid{os.getpid()}")
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    try:
        ops = generate(args.workload, args.seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        setups = [run_child(workdir, ops_path, "setup", 0, 0)
                  for _ in range(SETUP_SAMPLES)]
        spans = os.path.join(results, tag + "-spans.jsonl") if args.trace else None
        run = run_child(workdir, ops_path, "measure", args.seconds, args.trace, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run["attempted"] + sum(s["attempted"] for s in setups)
    failed = run["failed"] + sum(s["failed"] for s in setups)
    metrics = dict(run["metrics"])
    if not args.trace:
        metrics["setup_s"] = ("s", statistics.median(
            [s["setup_s"] for s in setups] + [run["setup_s"]]))
    reasons = run["reasons"] + [r for s in setups for r in s["reasons"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WORKLOADS[args.workload]["why"],
        "predictions": WORKLOADS[args.workload]["predictions"],
        "fingerprint": run["fingerprint"], "cycles": run["cycles"],
        "ops_per_cycle": run["ops_per_cycle"], "samples": run["samples"],
        "measured_s": run["measured_s"], "host_speed": run["host_speed"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "fail_ratio": failed / attempted, "fail_reasons": reasons[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key in ("fingerprint", "cycles", "samples", "measured_s", "host_speed", "fail_ratio",
                "fail_reasons"):
        print(f"# {key}: {json.dumps(record[key])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
