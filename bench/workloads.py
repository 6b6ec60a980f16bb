"""Workload definitions: why each exists, what it predicts, how its inputs
are drawn, and how each command's output is checked.

Every input (command seeds, matrix, tuple and h files) comes from
``numpy.random.default_rng(seed)``, never from ``ineqlab.seeded``, so the
program under test receives only generated inputs.  Input files are
written with ``repr`` floats and fixed key order: the same seed gives
byte-identical files and an identical op list.

An op is a plain dict, so the op list can be written to JSON and read by
the measuring child process:

    kind     CLI subcommand (set-up runs the first op of each kind)
    argv     argument list for ``ineqlab.cli.main``; paths are relative to
             the work directory the child runs in
    trials   seeded trials for campaign ops, 1 for an op on one input file
    outputs  files the op writes, captured for the determinism gate
    check    verdict expected from the input's construction
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SEED_BITS = 63

# Layer -> end-to-end predictions, for a later change to cite by name.  Each
# entry reads (per-layer metric, end-to-end metric it should move, note).
WORKLOADS = {
    "ddvv_campaign": {
        "why": "ddvv-verify over the criterion-1 grid (n, m) in {2..6}^2: per-trial Python/numpy "
               "overhead in seeded draws, tuple validation and ddvv_slack is nearly all the "
               "time; no eigensolves, tiny JSON writes, so a batched campaign engine shows here.",
        "predictions": [
            ("seeded.draw_us_per_trial", "trials_per_s", "batched SplitMix64 draws"),
            ("ddvv.validate_us_per_trial", "trials_per_s", "validate once at the boundary"),
            ("ddvv.slack_us_per_trial", "trials_per_s", "one stacked commutator kernel"),
            ("campaigns.self_ms", "trials_per_s", "per-trial loop and tracker overhead"),
            ("linalg.as_matrix.calls", "trials_per_s", "validate-once removes inner as_matrix"),
            ("serialize.write_ms", "op_p50_ms", "small effect: summaries are tiny"),
        ],
    },
    "bw_spectral": {
        "why": "bw-verify at n in 2..12 and bw-search at n in 2..6 (criteria 3-4): from n = 8 "
               "the time is dense n^2 x n^2 eigensolves, where BLAS threads, a Kronecker T "
               "and stacked eigvalsh show; draws are a small share.",
        "predictions": [
            ("bw.t_operator_us", "trials_per_s", "Kronecker-form T operator"),
            ("bw.spectrum_self_us", "trials_per_s", "stacked eigvalsh, BLAS thread policy"),
            ("bw.search_ms", "op_p90_ms", "search eigensolves dominate the slow tail"),
            ("bw.search_iters", "op_p90_ms", "count: only an algorithm change moves it"),
            ("bw.eig_flops", "trials_per_s", "computed sum of 4/3 (n^2)^3 per T eigensolve"),
            ("seeded.draw_us_per_trial", "trials_per_s", "small share at n >= 8"),
        ],
    },
    "copositive_check": {
        "why": "copositive on written matrices: criterion-6 style 3x3/4x4 with --oracle 40 on the "
               "cached lattice, plus full principal-submatrix enumeration at m in {8, 10, 12}; "
               "the only lattice-cache and memory workload, and it draws nothing from seeded.",
        "predictions": [
            ("copositive.property_k_ms", "ops_per_s", "stacked eigh per submatrix size"),
            ("copositive.submatrices", "ops_per_s", "count: early exit or pruning moves it"),
            ("linalg.sym_eigen.calls", "ops_per_s", "one call per submatrix today"),
            ("linalg.sym_eigen.self_us", "ops_per_s", "validation inside sym_eigen"),
            ("copositive.oracle_ms", "ops_per_s", "lattice evaluation"),
            ("copositive.lattice_points", "peak_rss_mb", "computed C(R+m-1, m-1) per oracle call"),
            ("copositive.lattice_cache_hit_ratio", "peak_rss_mb", "a bounded cache trades hits"),
            ("seeded.draw_us_per_trial", "ops_per_s", "no effect: nothing is drawn"),
        ],
    },
    "model_files": {
        "why": "reduce, curvature (file and --model), spectrum and models on tuple, h and matrix "
               "files up to n = m = 12: argparse and JSON (de)serialization are a large share, so "
               "a campaign-side gain that costs the file path shows here.",
        "predictions": [
            ("cli.self_ms", "op_p50_ms", "argparse construction per command"),
            ("serialize.read_ms", "op_p50_ms", "JSON parsing of input files"),
            ("serialize.write_ms", "op_p50_ms", "canonical dumps of large documents"),
            ("serialize.bytes_in", "op_p50_ms", "computed input size per op"),
            ("serialize.bytes_out", "op_p50_ms", "computed output size per op"),
            ("ddvv.reduce_ms", "op_p90_ms", "canonical reduction and its audit"),
            ("curvature.report_us", "op_p90_ms", "duplicated normal-curvature sum"),
        ],
    },
}


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2**SEED_BITS)))


def _write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _matrix_obj(a: np.ndarray) -> dict:
    return {"n": int(a.shape[0]), "entries": [[float(v) for v in row] for row in a]}


def _matrix_text(a: np.ndarray) -> str:
    rows = [" ".join(repr(float(v)) for v in row) for row in a]
    return f"{a.shape[0]}\n" + "\n".join(rows) + "\n"


def _sym(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def _op(kind, argv, check, trials=1, outputs=()):
    return {"kind": kind, "argv": [str(a) for a in argv], "trials": trials,
            "outputs": list(outputs), "check": check}


def _json_fmt(argv):
    return list(argv) + ["--format", "json"]


# ---------------------------------------------------------------------------
# generators: each returns the op list of one cycle and writes its files

DDVV_TRIALS = 40
DDVV_SEEDS_PER_CELL = 3


def gen_ddvv_campaign(rng, workdir):
    ops = []
    for _ in range(DDVV_SEEDS_PER_CELL):
        for n in range(2, 7):
            for m in range(2, 7):
                argv = ["ddvv-verify", "--seed", _seed(rng), "--trials", DDVV_TRIALS,
                        "--n", n, "--m", m]
                ops.append(_op("ddvv-verify", _json_fmt(argv),
                               {"name": "ddvv", "n": n, "m": m, "trials": DDVV_TRIALS},
                               trials=DDVV_TRIALS))
    return ops


BW_VERIFY_TRIALS = 10
BW_SEARCH_SEEDS = 4
BW_SEARCH_ITERS = 200
BW_ROUNDS = 4


def gen_bw_spectral(rng, workdir):
    ops = []
    for _ in range(BW_ROUNDS):
        for n in range(2, 13):
            argv = ["bw-verify", "--seed", _seed(rng), "--trials", BW_VERIFY_TRIALS, "--n", n]
            ops.append(_op("bw-verify", _json_fmt(argv),
                           {"name": "bw-verify", "n": n, "trials": BW_VERIFY_TRIALS},
                           trials=BW_VERIFY_TRIALS))
        for n in range(2, 7):
            argv = ["bw-search", "--seed", _seed(rng), "--trials", BW_SEARCH_SEEDS, "--n", n,
                    "--max-iters", BW_SEARCH_ITERS]
            ops.append(_op("bw-search", _json_fmt(argv),
                           {"name": "bw-search", "n": n, "seeds": BW_SEARCH_SEEDS},
                           trials=BW_SEARCH_SEEDS))
    return ops


# (m, matrices per cycle).  The small ones are checked with --oracle 40;
# their cost depends on where property K exits and how long the oracle
# polishes, so it varies with the draw.  Each enumeration size also gets
# one planted copy, which exits early.  Full enumeration costs the same
# for every matrix of a size, so the counts put the median inside the
# m = 8 block (ops 6-13 of 15 by cost) and the 90th percentile in the
# middle of the m = 10 op (op 14), away from the jumps between blocks.
COPOSITIVE_SMALL = ((3, 1), (4, 1))
COPOSITIVE_ORACLE = 40
COPOSITIVE_ENUM = ((8, 8), (10, 1), (12, 1))


def copositive_by_construction(rng, m: int) -> np.ndarray:
    """PSD plus entrywise-nonnegative: copositive by construction."""
    b = rng.standard_normal((m, m))
    nonneg = rng.uniform(0.0, 1.0, (m, m))
    p = b @ b.T + nonneg
    return 0.5 * (p + p.T)


def plant_negative_pair(rng, p: np.ndarray):
    """Copy of p with one off-diagonal pair pushed below -sqrt(p_ii p_jj).

    Then x = sqrt(p_jj) e_i + sqrt(p_ii) e_j is nonnegative with
    x^T P x < 0, so the copy is not copositive.
    """
    m = p.shape[0]
    i, j = (int(v) for v in rng.choice(m, size=2, replace=False))
    q = p.copy()
    q[i, j] = q[j, i] = -(math.sqrt(p[i, i] * p[j, j]) + 0.5 + float(rng.uniform()))
    return q, (min(i, j), max(i, j))


def gen_copositive_check(rng, workdir):
    ops = []
    count = 0

    def matrix_file(a, as_text):
        nonlocal count
        count += 1
        if as_text:
            return _write(workdir, f"cop{count}.txt", _matrix_text(a))
        return _write(workdir, f"cop{count}.json", json.dumps(_matrix_obj(a)) + "\n")

    for m, per_cycle in COPOSITIVE_SMALL:
        for k in range(per_cycle):
            path = matrix_file(_sym(rng, m), as_text=bool(k % 2))
            ops.append(_op("copositive",
                           _json_fmt(["copositive", "--input", path, "--oracle",
                                      COPOSITIVE_ORACLE]),
                           {"name": "copositive", "n": m, "expect": None, "oracle": True}))
    for m, per_cycle in COPOSITIVE_ENUM:
        for _ in range(per_cycle):
            p = copositive_by_construction(rng, m)
            ops.append(_op("copositive",
                           _json_fmt(["copositive", "--input", matrix_file(p, as_text=False)]),
                           {"name": "copositive", "n": m, "expect": True, "oracle": False}))
        q, pair = plant_negative_pair(rng, p)
        ops.append(_op("copositive",
                       _json_fmt(["copositive", "--input", matrix_file(q, as_text=True)]),
                       {"name": "copositive", "n": m, "expect": False, "oracle": False,
                        "planted": list(pair)}))
    return ops


MODEL_REDUCE = ((3, 2), (4, 4), (6, 6), (8, 5), (12, 12))
MODEL_CURVATURE = ((2, 2), (4, 3), (6, 6), (12, 12))
MODEL_SPECTRUM = (2, 4, 8, 12)
MODEL_CLIFFORD = ((1, 2), (2, 5), (3, 12))


def gen_model_files(rng, workdir):
    ops = []
    for k, (n, m) in enumerate(MODEL_REDUCE):
        mats = [_matrix_obj(_sym(rng, n)) for _ in range(m)]
        path = _write(workdir, f"tuple{k}.json",
                      json.dumps({"n": n, "m": m, "matrices": mats}) + "\n")
        out = f"reduced{k}.json"
        ops.append(_op("reduce", _json_fmt(["reduce", "--input", path, "--output", out]),
                       {"name": "reduce", "n": n, "m": m}, outputs=[out]))
    for k, (n, m) in enumerate(MODEL_CURVATURE):
        h = [[[float(v) for v in row] for row in _sym(rng, n)] for _ in range(m)]
        c = float(rng.uniform(-1.0, 1.0))
        path = _write(workdir, f"h{k}.json", json.dumps({"n": n, "m": m, "c": c, "h": h}) + "\n")
        ops.append(_op("curvature", _json_fmt(["curvature", "--input", path]),
                       {"name": "curvature", "n": n, "m": m, "model": False}))
    ops.append(_op("curvature", _json_fmt(["curvature", "--model", "veronese"]),
                   {"name": "curvature", "n": 2, "m": 2, "model": True}))
    for r, n in MODEL_CLIFFORD:
        ops.append(_op("curvature",
                       _json_fmt(["curvature", "--model", "clifford", "--r", r, "--n", n]),
                       {"name": "curvature", "n": n, "m": 1, "model": True}))
    for k, n in enumerate(MODEL_SPECTRUM):
        x = rng.standard_normal((n, n))
        if k % 2:
            path = _write(workdir, f"x{k}.txt", _matrix_text(x))
        else:
            path = _write(workdir, f"x{k}.json", json.dumps(_matrix_obj(x)) + "\n")
        ops.append(_op("spectrum", _json_fmt(["spectrum", "--input", path]),
                       {"name": "spectrum", "n": n}))
    ops.append(_op("models", ["models", "veronese", "--output", "veronese"],
                   {"name": "models", "n": 2, "m": 2},
                   outputs=["veronese_h.json", "veronese_tuple.json"]))
    for r, n in MODEL_CLIFFORD:
        prefix = f"clifford_{r}_{n}"
        ops.append(_op("models", ["models", "clifford", "--r", r, "--n", n, "--output", prefix],
                       {"name": "models", "n": n, "m": 1},
                       outputs=[prefix + "_h.json", prefix + "_tuple.json"]))
    return ops


GENERATORS = {
    "ddvv_campaign": gen_ddvv_campaign,
    "bw_spectral": gen_bw_spectral,
    "copositive_check": gen_copositive_check,
    "model_files": gen_model_files,
}


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into `workdir` and return its op list."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](np.random.default_rng(seed), workdir)


# ---------------------------------------------------------------------------
# verdict gate: None when the op's output agrees with its construction,
# otherwise the reason it counts as failed

def _tol(scale: float) -> float:
    return 1e-9 * (1.0 + abs(scale))


def _check_ddvv(c, doc, files):
    if doc.get("command") != "ddvv-verify" or (doc["n"], doc["m"]) != (c["n"], c["m"]):
        return "wrong command or shape echoed"
    if doc["trials_run"] != c["trials"]:
        return f"trials_run {doc['trials_run']} != {c['trials']}"
    if doc["violations"] != 0:
        return f"{doc['violations']} DDVV violations"
    return None


def _check_bw_verify(c, doc, files):
    if doc.get("command") != "bw-verify" or doc["n"] != c["n"]:
        return "wrong command or shape echoed"
    if doc["trials_run"] != c["trials"]:
        return f"trials_run {doc['trials_run']} != {c['trials']}"
    bad = doc["commutator"]["violations"] + doc["spectral"]["violations"]
    return f"{bad} BW violations" if bad else None


def _check_bw_search(c, doc, files):
    if doc.get("command") != "bw-search" or doc["n"] != c["n"] or doc["seeds"] != c["seeds"]:
        return "wrong command or shape echoed"
    if not 0.0 < doc["best_ratio"] <= 2.0 + _tol(2.0):
        return f"best_ratio {doc['best_ratio']} outside (0, 2]"
    return None


def _check_copositive(c, doc, files):
    if doc.get("command") != "copositive" or doc["n"] != c["n"]:
        return "wrong command or shape echoed"
    verdict = doc["property_k"]["copositive"]
    if c["expect"] is not None and verdict != c["expect"]:
        return f"property_k says copositive={verdict}, construction says {c['expect']}"
    if c["oracle"] and doc["agree"] is not True:
        return "property_k and oracle disagree"
    if not c["oracle"] and doc["oracle"] is not None:
        return "oracle ran without --oracle"
    return None


def _check_reduce(c, doc):
    t = doc["tuple"]
    if (t["n"], t["m"]) != (c["n"], c["m"]):
        return "reduced tuple has the wrong shape"
    before, after = doc["slack_before"], doc["slack_after"]
    if not (before["holds"] and after["holds"]):
        return "DDVV fails before or after reduction"
    if abs(before["slack"] - after["slack"]) > 1e-8 * (1.0 + abs(before["lhs"])):
        return "slack not invariant under the group action"
    return None


def _check_curvature(c, doc, files):
    if doc.get("command") != "curvature" or (doc["n"], doc["m"]) != (c["n"], c["m"]):
        return "wrong command or shape echoed"
    cur, fund = doc["curvature"], doc["fundamental"]
    if cur["geometric_slack"] < -_tol(abs(cur["mean_curv_sq"]) + abs(doc["c"])):
        return f"geometric slack {cur['geometric_slack']} < 0"
    if c["model"] and not (fund["within_boundary"]
                           and abs(fund["pinch"] - c["n"]) <= _tol(c["n"])):
        return f"model pinch {fund['pinch']} is not on the boundary n = {c['n']}"
    return None


def _check_spectrum(c, doc, files):
    if doc.get("command") != "spectrum" or doc["n"] != c["n"]:
        return "wrong command or shape echoed"
    if len(doc["eigenvalues"]) != c["n"] ** 2:
        return "T spectrum has the wrong length"
    if not doc["lambda_max"] <= 2.0 + _tol(2.0):
        return f"lambda_max {doc['lambda_max']} > 2"
    return None


def check(op: dict, rc, stdout: str, files: dict):
    """Gate one op: exit code, well-formed JSON and the construction's verdict."""
    c = op["check"]
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        if c["name"] == "models":
            docs = [json.loads(files[p]) for p in op["outputs"]]
            h = docs[0]
            if (h["n"], h["m"]) != (c["n"], c["m"]) or docs[1]["m"] != c["m"]:
                return "model files have the wrong shape"
            return None
        if c["name"] == "reduce":
            if stdout:
                return "reduce --format json --output wrote to stdout"
            return _check_reduce(c, json.loads(files[op["outputs"][0]]))
        doc = json.loads(stdout)
        return CHECKS[c["name"]](c, doc, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


CHECKS = {
    "ddvv": _check_ddvv,
    "bw-verify": _check_bw_verify,
    "bw-search": _check_bw_search,
    "copositive": _check_copositive,
    "curvature": _check_curvature,
    "spectrum": _check_spectrum,
}
