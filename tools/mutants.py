"""Mutation audit of the verdict constants: does tier-1 catch a wrong one?

Each mutant below is a one-line source change.  For each, the repository is
copied to a temporary directory, the mutant applied there, and tier-1 run
with -x; the mutant is killed when a test fails.  Tier-1 runs first on an
unmutated copy, and the audit stops if that fails, since a test that fails
anyway would "kill" every mutant.  The repository itself is never modified.
A survivor gets a test that pins what it changes, or an EQUIVALENT entry
that declares it equivalent for verdicts, with the reason.

    python tools/mutants.py    # a Markdown table on stdout
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/ineqlab, the line's text, its mutant)
MUTANTS = [
    ("oracle-finest", "copositive.py",
     "finest = 2.0 / resolution**2", "finest = 8.0 / resolution**2"),
    ("sign-zero-tol", "copositive.py", "SIGN_ZERO_TOL = 1e-10", "SIGN_ZERO_TOL = 1e-6"),
    ("spn-shift", "copositive.py", "SPN_SHIFT = 0.1", "SPN_SHIFT = 0.5"),
    ("screen-margin", "bw.py", "SCREEN_MARGIN = 1e-9", "SCREEN_MARGIN = -1e-6"),
    ("property-k-neg-eps", "copositive.py",
     "neg_eps = 1e-10 * (1.0 + norm)", "neg_eps = 1e-6 * (1.0 + norm)"),
    ("symmetry-tol", "linalg.py", "SYMMETRY_TOL = 1e-12", "SYMMETRY_TOL = 1e-6"),
    ("symmetry-boundary", "linalg.py", "    if defect > allowed:", "    if defect >= allowed:"),
    ("orthogonal-tol", "ddvv.py",
     "np.eye(size)).max() <= 1e-10):", "np.eye(size)).max() <= 1e-6):"),
    ("orthogonal-entry-bound", "ddvv.py",
     "np.abs(g).max() <= 1.0 + 1e-10", "np.abs(g).max() <= 1.0 + 1e-6"),
    ("tol-coeff", "report.py", "TOL_COEFF = 1e-9", "TOL_COEFF = 1e-6"),
    ("holds-boundary", "report.py",
     "return slack >= -_tolerance(", "return slack > -_tolerance("),
    ("oracle-budget", "copositive.py", "ORACLE_BUDGET = 1 << 22", "ORACLE_BUDGET = 1 << 20"),
    ("screen-positive", "campaigns.py",
     "if not (mu > 0.0 and certified_below(", "if not (mu >= 0.0 and certified_below("),
    ("bw-constant", "bw.py", "BW_CONSTANT = 2.0", "BW_CONSTANT = 2.5"),
    ("bw-lhs-halved", "bw.py",
     "return lhs, BW_CONSTANT * scale", "return 0.5 * lhs, BW_CONSTANT * scale"),
    ("ddvv-rhs-halved", "ddvv.py",
     "rhs = 2.0 * sum_in_order(", "rhs = 1.0 * sum_in_order("),
    ("tuple-n-cap", "serialize.py",
     "and value > DIM_CAP:", "and value > DIM_CAP + 1:"),
    ("traceless-writable", "ddvv.py",
     "self.matrices.flags.writeable = False", "self.matrices.flags.writeable = True"),
    ("reduce-float-range", "ddvv.py",
     "    tolerance(gram)  #", "    pass  #"),
    ("group-act-float-range", "ddvv.py",
     "    tolerance(mixed)  #", "    pass  #"),
    ("replay-tol", "ddvv.py",
     "errs > 1e-9 * (1.0 + norms)", "errs > 1e-3 * (1.0 + norms)"),
    ("degenerate-tol", "ddvv.py",
     "<= 1e-14 * (1.0 + frobenius_norm(t.matrices))",
     "<= 1e-6 * (1.0 + frobenius_norm(t.matrices))"),
    ("sorted-tol", "ddvv.py",
     "tail[1:] - 1e-12 * (1.0 + tail[1:])", "tail[1:] - 1e-6 * (1.0 + tail[1:])"),
    ("diagonal-tol", "ddvv.py",
     "off_mass > 1e-10 * (1.0 + frobenius_norm(a))", "off_mass > 1e-6 * (1.0 + frobenius_norm(a))"),
    ("unit-tol", "ddvv.py", "if abs(nrm - 1.0) > 1e-10:", "if abs(nrm - 1.0) > 1e-6:"),
    ("orthogonal-pair-tol", "ddvv.py",
     "(np.abs(gram[r, s]) > 1e-10 * (1.0 + norms[r] * norms[s]))",
     "(np.abs(gram[r, s]) > 1e-6 * (1.0 + norms[r] * norms[s]))"),
    ("sign-nonzero-tol", "ddvv.py",
     "(np.abs(diag) > 1e-12 * (1.0 + frobenius_norm(reduced_stack[0])))",
     "(np.abs(diag) > 1e-6 * (1.0 + frobenius_norm(reduced_stack[0])))"),
    ("decode-value-error", "serialize.py",
     "except (ValueError, RecursionError) as exc:",
     "except (json.JSONDecodeError, RecursionError) as exc:"),
    ("property-k-skips-p", "copositive.py",
     "for size in range(1, m + 1):", "for size in range(1, m):"),
    ("verdict-value-eq", "copositive.py",
     "@dataclass(frozen=True, eq=False)", "@dataclass(frozen=True)"),
    ("half-step-residual", "bw.py", "<= 1e-20 * vv", "<= 1e-4 * vv"),
    ("half-step-top", "bw.py",
     "    if kept.any() and not certified_below(tms[kept], mu):", "    if False:"),
    ("rho-perp-root-of-one", "curvature.py",
     "p = float(np.sqrt(2.0 * sum_in_order(commutator_norms_sq(b))))",
     "p = float(np.sqrt(1.0 * sum_in_order(commutator_norms_sq(b))))"),
    ("shape-slack-factor", "curvature.py",
     "shape_slack=n * (b_sq - p),", "shape_slack=(n - 1) * (b_sq - p),"),
]

# Mutants that change no verdict, with the reason: they still run, and a survivor
# among them reads "equivalent" instead of failing the audit.
EQUIVALENT = {
    "orthogonal-entry-bound": "the entry bound follows from max abs(g^T g - I) <= 1e-10, so it "
                              "only decides which non-orthogonal g skip the product",
    "screen-positive": "at mu = 0 the Cholesky of -T fails anyway, since T is positive "
                       "semidefinite",
}

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def tier1(edit=()) -> tuple:
    """(exit code, seconds, first failing test) of tier-1 on a copy of the
    repository, with edit = (module, line, mutant) applied to the copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if edit:
            module, line, mutant = edit
            path = copy / "src" / "ineqlab" / module
            text = path.read_text()
            if text.count(line) != 1:
                raise SystemExit(f"{line!r} occurs {text.count(line)} times in {module}")
            path.write_text(text.replace(line, mutant))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, seconds, failed.group(1) if failed else ""


def main() -> int:
    code, _, test = tier1()
    if code:
        raise SystemExit(f"tier-1 fails unmutated ({test or f'exit {code}'}); no mutant judged")
    print("| mutant | change | outcome | seconds | killed by, or why equivalent |")
    print("|---|---|---|---|---|")
    survivors = 0
    for name, module, line, mutant in MUTANTS:
        code, seconds, test = tier1((module, line, mutant))
        outcome = {0: "survived", 1: "killed"}.get(code, f"error {code}")
        if outcome == "survived" and name in EQUIVALENT:
            outcome, test = "equivalent", EQUIVALENT[name]
        else:
            test = test and f"`{test}`"
        survivors += outcome not in ("killed", "equivalent")
        print(f"| {name} | `{line.strip()}` -> `{mutant.strip()}` ({module}) | {outcome} "
              f"| {seconds:.1f} | {test} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
