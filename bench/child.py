"""Measuring process: one fresh interpreter per workload run.

    python3 bench/child.py --src SRC --ops OPS_JSON --mode setup|measure
                           --seconds S --trace 0|1 [--spans FILE]

It runs in the work directory that holds the generated inputs and prints
one JSON object as its last line.  ``setup`` mode stops after set-up:
importing ineqlab and running the first op of each command kind.
``measure`` mode then runs a warm-up pass over the op list and times
whole passes (cycles) until the next one would overrun ``--seconds``: a
closed loop, one command at a time, as a CLI user issues them.  With
``--trace 1`` untraced and traced cycles alternate, so the tracing
overhead compares the same commands under the same conditions.  Cycle
latencies are scaled by the host speed probed after each cycle (see
``host_speed``); set-up time is raw wall time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import check  # noqa: E402


def import_cli(src: str):
    """Import ineqlab.cli from `src` only, never from an installed copy."""
    if not os.path.isfile(os.path.join(src, "ineqlab", "cli.py")):
        raise SystemExit(f"bench: no ineqlab sources under {src}")
    sys.path.insert(0, src)
    import ineqlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bench: imported ineqlab from {cli.__file__}, not {src}")
    return cli


def run_op(cli, op: dict):
    """Run one command in-process; return (latency_s, exit code, stdout, output files)."""
    for path in op["outputs"]:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:  # a traceback escaping main is a failed op
            rc = f"uncaught {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    files = {}
    for path in op["outputs"]:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                files[path] = fh.read()
    return latency, rc, out.getvalue(), files


class Gate:
    """Counts attempted and failed ops and keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, index: int, op: dict, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op {index} ({op['kind']}): {reason}")


def fingerprint(root: str) -> dict:
    """Machine and stack description recorded with every result; reads only."""
    import ctypes
    import glob
    import platform
    import subprocess

    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas": None, "blas_version": None, "blas_threads": None, "git_commit": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    for lib_path in libs:
        try:
            get = ctypes.CDLL(lib_path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["blas_threads"] = get()
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


# Host speed.  On a shared 2-vCPU virtual machine the CPU speed drifts by
# 10-20 % over seconds (neighbouring load), moving every wall time alike.
# After each cycle a fixed probe of tiny numpy ops, the same kind of work
# as ineqlab's per-call overhead, runs for CAL_SHARE of the cycle's time,
# and the cycle's latencies are scaled by CAL_REFERENCE_S / (probe seconds
# per unit): they read as if on a host that runs one unit in 5 ms.
CAL_SHARE = 0.1
CAL_REFERENCE_S = 0.005
CAL_UNIT_ITERS = 500


def host_speed(budget_s: float) -> float:
    """Speed of this host relative to the reference, probed for about `budget_s`."""
    a = np.arange(16.0).reshape(4, 4)
    units, spent = 0, 0.0
    gc.disable()
    try:
        while units == 0 or spent < budget_s:
            start = time.perf_counter()
            for _ in range(CAL_UNIT_ITERS):
                b = a @ a - a.T
                float(np.sum(b * b))
            spent += time.perf_counter() - start
            units += 1
    finally:
        gc.enable()
    return CAL_REFERENCE_S * units / spent


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)

    gate = Gate()
    warm = {}
    cli = import_cli(args.src)
    seen = set()
    for index, op in enumerate(ops):
        if op["kind"] not in seen:
            seen.add(op["kind"])
            _, rc, stdout, files = run_op(cli, op)
            gate.record(index, op, check(op, rc, stdout, files))
            warm[index] = (stdout, files)
    # Set-up stays raw wall time: a probe this soon after start-up reads the
    # host speed far less steadily than importing (mostly file reads) varies.
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "attempted": gate.attempted,
                          "failed": gate.failed, "reasons": gate.reasons}))
        return 0

    for index, op in enumerate(ops):
        if index not in warm:
            _, rc, stdout, files = run_op(cli, op)
            gate.record(index, op, check(op, rc, stdout, files))
            warm[index] = (stdout, files)

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()

    def cycle(traced: bool):
        """One closed-loop pass over the op list; returns per-op latencies."""
        latencies = []
        if traced:
            tracer.install()
        try:
            for index, op in enumerate(ops):
                if traced:
                    tracer.op = index
                latency, rc, stdout, files = run_op(cli, op)
                reason = check(op, rc, stdout, files)
                if reason is None and (stdout, files) != warm[index]:
                    reason = "output bytes differ from the warm-up pass"
                gate.record(index, op, reason)
                latencies.append(latency)
        finally:
            if traced:
                tracer.uninstall()
        return latencies

    plain, traced_lat, speeds = [], [], []
    cycles = 0
    start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        lat = cycle(False)
        speed = host_speed(CAL_SHARE * sum(lat))
        plain.extend(x * speed for x in lat)
        speeds.append(speed)
        if tracer is not None:
            lat = cycle(True)
            speed = host_speed(CAL_SHARE * sum(lat))
            traced_lat.extend(x * speed for x in lat)
        cycles += 1
        now = time.perf_counter()
        if (now - start) + (now - t_cycle) > args.seconds:  # the next cycle would overrun
            break

    trials_per_cycle = sum(op["trials"] for op in ops)
    result = {"attempted": gate.attempted, "failed": gate.failed, "reasons": gate.reasons,
              "setup_s": setup_s, "cycles": cycles, "ops_per_cycle": len(ops),
              "measured_s": time.perf_counter() - start,
              "host_speed": sorted(speeds)[len(speeds) // 2],
              "fingerprint": fingerprint(args.root)}
    if tracer is None:
        lat = sorted(plain)
        busy = sum(plain)
        result["metrics"] = {
            "ops_per_s": ("1/s", len(plain) / busy),
            "trials_per_s": ("1/s", cycles * trials_per_cycle / busy),
            "op_p50_ms": ("ms", 1e3 * percentile(lat, 0.5)),
            "op_p90_ms": ("ms", 1e3 * percentile(lat, 0.9)),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        }
        result["samples"] = len(plain)
    else:
        overhead = sum(traced_lat) / sum(plain)
        result["metrics"] = layer_metrics(tracer, cycles * len(ops), cycles * trials_per_cycle,
                                          overhead)
        result["metrics"]["host.speed"] = ("ratio", result["host_speed"])
        result["samples"] = len(traced_lat)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
