"""Command-line front end.

Subcommands: ddvv-verify, bw-verify, bw-search, reduce, copositive,
curvature, models, spectrum.  Exit codes: 0 all checks pass, 1 violation
found, 2 input/config error.  JSON output is byte-identical across runs
with the same arguments (wall-clock timing appears in text output only).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .bw import bw_slack, bw_spectral_slack, spectral_report, t_spectrum
from .campaigns import run_bw_campaign, run_ddvv_campaign, run_search_campaign
from .copositive import copositive_oracle, copositive_property_k
from .curvature import (
    SecondFundamentalForm,
    clifford_model,
    curvature_report,
    fundamental_report,
    geometric_tol,
    veronese_tuple,
)
from .ddvv import canonical_reduce, ddvv_slack
from .errors import InputRejected, NumericalFailure
from .report import TOL_COEFF
from .serialize import (
    canonical_form_json,
    curvature_json,
    dumps,
    fundamental_json,
    pair_json,
    read_matrix_file,
    read_pair_file,
    read_sff_file,
    read_tuple_file,
    report_json,
    sff_json,
    tuple_json,
    verdict_json,
)


_ARGUMENTS = {
    "--seed": dict(type=int, default=0, help="64-bit master seed"),
    "--trials": dict(type=int, default=1000, help="number of seeded trials"),
    "--n": dict(type=int, default=3, help="matrix dimension"),
    "--m": dict(type=int, default=3, help="tuple length / codimension"),
    "--c": dict(type=float, default=None, help="ambient curvature override"),
    "--r": dict(type=int, default=1, help="sphere-split parameter for the clifford model"),
    "--tol": dict(type=float, default=None,
                  help="fixed tolerance override (default: 1e-9*(1+|lhs|) per trial)"),
    "--max-iters": dict(type=int, default=200),
    "--oracle": dict(type=int, default=None, metavar="RESOLUTION",
                     help="cross-check with the simplex-lattice oracle"),
    "--model": dict(choices=("veronese", "clifford"), default=None),
    "--format": dict(choices=("text", "json"), default="text"),
    "--input": dict(default=None, help="input file"),
    "--output": dict(default=None, help="output file (default: stdout)"),
    "name": dict(choices=("clifford", "veronese")),
}

# Each subcommand takes exactly the arguments its handler reads.
_COMMANDS = {
    "ddvv-verify": ("verify the DDVV inequality on seeded random symmetric tuples",
                    ("--seed", "--trials", "--n", "--m", "--tol", "--format", "--input",
                     "--output")),
    "bw-verify": ("verify the commutator bound on seeded random pairs",
                  ("--seed", "--trials", "--n", "--tol", "--format", "--input", "--output")),
    "bw-search": ("alternating search for the extremal commutator ratio",
                  ("--seed", "--trials", "--n", "--max-iters", "--format", "--output")),
    "reduce": ("reduce a tuple to canonical form under O(n) x O(m)",
               ("--format", "--input", "--output")),
    "copositive": ("decide copositivity via the principal-submatrix test",
                   ("--oracle", "--format", "--input", "--output")),
    "curvature": ("curvature and fundamental-matrix report for an h file",
                  ("--model", "--r", "--n", "--c", "--format", "--input", "--output")),
    "models": ("emit the model configurations as h + tuple files",
               ("name", "--r", "--n", "--output")),
    "spectrum": ("eigenvalues of the T operator of an input matrix",
                 ("--format", "--input", "--output")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqlab",
        description="Seeded numerical verification of matrix commutator inequalities",
    )
    parser.add_argument("--version", action="version", version=f"ineqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for arg in arguments:
            sp.add_argument(arg, **_ARGUMENTS[arg])
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses: building one costs 10-30x a parse."""
    return build_parser()


def _emit(args, doc: dict, text_lines: list) -> None:
    if args.format == "json":
        payload = dumps(doc) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _summary_fields(summary) -> dict:
    return {
        "trials_run": summary.trials_run,
        "violations": summary.violations,
        "min_slack": summary.min_slack,
        "argmin_seed": summary.argmin_seed,
    }


def _tol_fields(args) -> dict:
    if args.tol is not None:
        return {"tol": args.tol, "tol_mode": "fixed"}
    return {"tol": TOL_COEFF, "tol_mode": "relative(1+|lhs|)"}


def _holds(rep, args) -> bool:
    """Verdict for one report under --tol, or the report's own tolerance."""
    return rep.slack >= -(args.tol if args.tol is not None else rep.tol)


def cmd_ddvv_verify(args) -> int:
    if args.input:
        t = read_tuple_file(args.input)
        rep = ddvv_slack(t)
        violations = 0 if _holds(rep, args) else 1
        doc = {
            "command": "ddvv-verify", "version": __version__, "seed": args.seed,
            "n": t.n, "m": t.m, **_tol_fields(args),
            "trials_run": 1, "violations": violations,
            "min_slack": rep.slack, "argmin_seed": args.seed,
            "report": report_json(rep),
        }
        lines = [
            f"ddvv-verify input={args.input} n={t.n} m={t.m}",
            f"lhs={rep.lhs:.12e} rhs={rep.rhs:.12e} slack={rep.slack:.6e}",
            "PASS" if violations == 0 else "FAIL",
        ]
        _emit(args, doc, lines)
        return 0 if violations == 0 else 1

    summary = run_ddvv_campaign(args.seed, args.trials, args.n, args.m, args.tol)
    doc = {
        "command": "ddvv-verify", "version": __version__, "seed": args.seed,
        "n": args.n, "m": args.m, **_tol_fields(args), **_summary_fields(summary),
    }
    lines = [
        f"ddvv-verify seed={args.seed} trials={summary.trials_run} n={args.n} m={args.m}",
        f"violations={summary.violations} min_slack={summary.min_slack:.6e} "
        f"argmin_seed={summary.argmin_seed}",
        f"wall_time_ms={summary.wall_time_ms}",
        "PASS" if summary.violations == 0 else "FAIL",
    ]
    _emit(args, doc, lines)
    return 0 if summary.violations == 0 else 1


def cmd_bw_verify(args) -> int:
    if args.input:
        x, y = read_pair_file(args.input)
        pair = bw_slack(x, y)
        spec = bw_spectral_slack(x)
        ok = _holds(pair, args) and _holds(spec, args)
        doc = {
            "command": "bw-verify", "version": __version__, "seed": args.seed,
            "n": int(x.shape[0]), **_tol_fields(args),
            "commutator": report_json(pair), "spectral": report_json(spec),
        }
        lines = [
            f"bw-verify input={args.input} n={x.shape[0]}",
            f"commutator slack={pair.slack:.6e}  spectral slack={spec.slack:.6e}",
            "PASS" if ok else "FAIL",
        ]
        _emit(args, doc, lines)
        return 0 if ok else 1

    result = run_bw_campaign(args.seed, args.trials, args.n, args.tol)
    violations = result.commutator.violations + result.spectral.violations
    doc = {
        "command": "bw-verify", "version": __version__, "seed": args.seed,
        "n": args.n, **_tol_fields(args), "trials_run": result.commutator.trials_run,
        "commutator": _summary_fields(result.commutator),
        "spectral": _summary_fields(result.spectral),
    }
    lines = [
        f"bw-verify seed={args.seed} trials={args.trials} n={args.n}",
        f"commutator violations={result.commutator.violations} "
        f"min_slack={result.commutator.min_slack:.6e}",
        f"spectral violations={result.spectral.violations} "
        f"min_slack={result.spectral.min_slack:.6e}",
        f"wall_time_ms={result.commutator.wall_time_ms}",
        "PASS" if violations == 0 else "FAIL",
    ]
    _emit(args, doc, lines)
    return 0 if violations == 0 else 1


def cmd_bw_search(args) -> int:
    results = run_search_campaign(args.seed, args.trials, args.n, args.max_iters)
    best_idx = int(np.argmax([r.best_ratio for r in results]))
    best = results[best_idx]
    doc = {
        "command": "bw-search", "version": __version__, "seed": args.seed,
        "n": args.n, "seeds": args.trials, "max_iters": args.max_iters,
        "best_ratio": best.best_ratio, "best_seed_index": best_idx,
        "iterations": best.iterations, "converged": best.converged,
        "trajectory": list(best.trajectory),
        "pair": pair_json(best.x, best.y),
    }
    lines = [
        f"bw-search seed={args.seed} n={args.n} seeds={args.trials} max_iters={args.max_iters}",
        f"best_ratio={best.best_ratio:.12f} (seed index {best_idx}, "
        f"{best.iterations} iterations, converged={best.converged})",
        "trajectory: " + " ".join(f"{v:.9f}" for v in best.trajectory),
    ]
    _emit(args, doc, lines)
    return 0 if best.best_ratio <= 2.0 + 1e-9 else 1


def cmd_reduce(args) -> int:
    if not args.input:
        raise InputRejected("reduce requires --input TUPLE_FILE")
    t = read_tuple_file(args.input)
    before = ddvv_slack(t)
    form = canonical_reduce(t)
    after = ddvv_slack(form.reduced)
    doc = canonical_form_json(form, before, after)
    lines = [
        f"reduce input={args.input} n={t.n} m={t.m} degenerate={form.degenerate}",
        f"slack before={before.slack:.12e} after={after.slack:.12e}",
        "member norms: " + " ".join(f"{v:.9f}" for v in np.sqrt(form.reduced.norms_sq())),
    ]
    if args.output:
        # the output file always receives the canonical-form JSON document
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc) + "\n")
        if args.format == "text":
            sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(args, doc, lines)
    return 0


def cmd_copositive(args) -> int:
    if not args.input:
        raise InputRejected("copositive requires --input MATRIX_FILE")
    p = read_matrix_file(args.input)
    verdict = copositive_property_k(p)
    oracle = copositive_oracle(p, args.oracle) if args.oracle is not None else None
    agree = None if oracle is None else (oracle.copositive == verdict.copositive)
    doc = {
        "command": "copositive", "version": __version__, "n": int(p.shape[0]),
        "property_k": verdict_json(verdict),
        "oracle": None if oracle is None else verdict_json(oracle),
        "agree": agree,
    }
    lines = [f"copositive input={args.input} n={p.shape[0]}",
             f"property_k: {'copositive' if verdict.copositive else 'NOT copositive'}"]
    if verdict.failing_submatrix is not None:
        lines.append(f"failing principal submatrix (0-based): {list(verdict.failing_submatrix)}")
    if verdict.certificate is not None:
        lines.append("certificate x >= 0 with x^T P x < 0: "
                     + " ".join(f"{v:.9f}" for v in verdict.certificate))
    if oracle is not None:
        lines.append(f"oracle (resolution {args.oracle}): "
                     f"{'copositive' if oracle.copositive else 'NOT copositive'} "
                     f"agree={agree}")
    _emit(args, doc, lines)
    return 0 if agree in (None, True) else 1


def _model_form(name: str, args) -> SecondFundamentalForm:
    return veronese_tuple() if name == "veronese" else clifford_model(args.r, args.n)


def cmd_curvature(args) -> int:
    if args.input:
        form = read_sff_file(args.input)
    elif args.model:
        form = _model_form(args.model, args)
    else:
        raise InputRejected("curvature requires --input H_FILE or --model NAME")
    if args.c is not None:
        form = SecondFundamentalForm.from_array(form.h, c=args.c)
    rep = curvature_report(form)
    fund = fundamental_report(form)
    doc = {
        "command": "curvature", "version": __version__,
        "n": form.n, "m": form.m, "c": form.c,
        "curvature": curvature_json(rep),
        "fundamental": fundamental_json(fund, form.n),
    }
    lines = [
        f"curvature n={form.n} m={form.m} c={form.c}",
        f"rho={rep.rho:.12f} rho_perp={rep.rho_perp:.12f} |H|^2={rep.mean_curv_sq:.12f}",
        f"geometric_slack={rep.geometric_slack:.6e} shape_slack={rep.shape_slack:.6e}",
        f"sigma_sq={fund.sigma_sq:.12f} pinch={fund.pinch:.12f} (boundary n={form.n})",
    ]
    _emit(args, doc, lines)
    return 0 if rep.geometric_slack >= -geometric_tol(rep, form.c) else 1


def cmd_models(args) -> int:
    if not args.output:
        raise InputRejected("models requires --output PREFIX")
    form = _model_form(args.name, args)
    h_path = args.output + "_h.json"
    t_path = args.output + "_tuple.json"
    with open(h_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(sff_json(form)) + "\n")
    with open(t_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(tuple_json(form.to_tuple())) + "\n")
    sys.stdout.write(f"wrote {h_path}\nwrote {t_path}\n")
    return 0


def cmd_spectrum(args) -> int:
    if not args.input:
        raise InputRejected("spectrum requires --input MATRIX_FILE")
    x = read_matrix_file(args.input)
    values = t_spectrum(x)
    rep = spectral_report(values)
    doc = {
        "command": "spectrum", "version": __version__, "n": int(x.shape[0]),
        "lambda_max": float(values[0]), "eigenvalues": values.tolist(),
        "report": report_json(rep),
    }
    lines = [
        f"spectrum input={args.input} n={x.shape[0]}",
        f"lambda_max={values[0]:.12f} (bound 2)",
        "eigenvalues: " + " ".join(f"{v:.9f}" for v in values),
    ]
    _emit(args, doc, lines)
    return 0 if rep.holds else 1


_HANDLERS = {
    "ddvv-verify": cmd_ddvv_verify,
    "bw-verify": cmd_bw_verify,
    "bw-search": cmd_bw_search,
    "reduce": cmd_reduce,
    "copositive": cmd_copositive,
    "curvature": cmd_curvature,
    "models": cmd_models,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InputRejected, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
