"""Command-line front end.

Subcommands: ddvv-verify, bw-verify, bw-search, reduce, copositive,
curvature, models, spectrum.  Each handler returns one JSON document and
its exit code: 0 all checks pass, 1 violation found, 2 input/config
error (an overflow's inf or NaN that report.tolerance refuses included);
main exits 3 on a numerical failure.  The document is byte-identical
across runs with the same arguments; a campaign's wall time goes to
stderr instead.

A command line of the canonical form, the subcommand then `--option value`
pairs with each option the subcommand's own, spelled in full, and no value
starting with '-', is read straight from _COMMANDS and _ARGUMENTS into the
Namespace argparse would build.  argparse parses every other command line
and owns help, --version, usage errors and exit code 2.  The saving is per
in-process main() call (tests, the benchmark, notebooks); a fresh process
is dominated by import.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

import numpy as np

from . import __version__
from .bw import bw_slack, bw_spectral_slack, spectral_report, t_spectrum
from .campaigns import CampaignSummary, run_bw_campaign, run_ddvv_campaign, run_search_campaign
from .copositive import copositive_oracle, copositive_property_k
from .curvature import (
    SecondFundamentalForm,
    clifford_model,
    curvature_report,
    finite_c,
    fundamental_report,
    veronese_tuple,
)
from .ddvv import canonical_reduce, ddvv_slack
from .errors import InputRejected, NumericalFailure
from .linalg import _symmetric_normalized
from .report import TOL_COEFF, holds, tolerance
from .serialize import (
    canonical_form_json,
    dumps,
    field_dict,
    pair_json,
    read_matrix_file,
    read_pair_file,
    read_sff_file,
    read_tuple_file,
    sff_json,
    tuple_json,
)


def _finite_float(text: str) -> float:
    """The argparse type of --tol: a float, refused unless finite."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite float, got {text!r}")
    return value


_ARGUMENTS = {
    "--seed": dict(type=int, default=0, help="64-bit master seed"),
    "--trials": dict(type=int, default=1000, help="number of seeded trials"),
    "--n": dict(type=int, default=3, help="matrix dimension"),
    "--m": dict(type=int, default=3, help="tuple length / codimension"),
    "--c": dict(type=float, default=None, help="ambient curvature override"),
    "--r": dict(type=int, default=1, help="sphere-split parameter for the clifford model"),
    "--tol": dict(type=_finite_float,
                  help="fixed tolerance override (default: 1e-9*(1+|lhs|) per trial)"),
    "--max-iters": dict(type=int, default=200),
    "--oracle": dict(type=int, default=None, metavar="RESOLUTION",
                     help="cross-check by simplicial partition, to edges of sqrt(2)/RESOLUTION"),
    "--model": dict(choices=("veronese", "clifford"), default=None),
    "--format": dict(choices=("text", "json"), default="text"),
    "--input": dict(default=None, help="input file"),
    "--output": dict(default=None, help="file for the JSON document (default: stdout); for "
                     "models, the required prefix of OUTPUT_h.json and OUTPUT_tuple.json"),
    "name": dict(choices=("clifford", "veronese")),
}


def _header(args, **shape) -> dict:
    """The keys a document opens with, in order: command, version, the seed,
    the shape, then the tolerance of the commands that take --tol."""
    doc = {"command": args.command, "version": __version__}
    if "seed" in vars(args):
        doc["seed"] = args.seed
    doc.update(shape)
    if "tol" in vars(args):
        doc.update({"tol": args.tol, "tol_mode": "fixed"} if args.tol is not None
                   else {"tol": TOL_COEFF, "tol_mode": "relative(1+|lhs|)"})
    return doc


def _input(args, what: str) -> str:
    """The --input path of a command that cannot run without one."""
    if not args.input:
        raise InputRejected(f"{args.command} requires --input {what}")
    return args.input


def _timed(campaign, *config):
    """Run a campaign; its wall time goes to stderr, out of the byte-identical JSON."""
    t0 = time.perf_counter()
    result = campaign(*config)
    sys.stderr.write(f"wall_time_ms={int((time.perf_counter() - t0) * 1000.0)}\n")
    return result


def cmd_ddvv_verify(args) -> tuple:
    if args.input:
        t = read_tuple_file(args.input)
        rep = dataclasses.replace(ddvv_slack(t), tol=args.tol)
        summary = CampaignSummary(1, 0 if rep.holds else 1, rep.slack, args.seed)
        doc = {**_header(args, n=t.n, m=t.m), **field_dict(summary), "report": rep}
    else:
        summary = _timed(run_ddvv_campaign, args.seed, args.trials, args.n, args.m, args.tol)
        doc = {**_header(args, n=args.n, m=args.m), **field_dict(summary)}
    return doc, 0 if summary.violations == 0 else 1


def cmd_bw_verify(args) -> tuple:
    if args.input:
        x, y = read_pair_file(args.input)
        pair, spec = (dataclasses.replace(rep, tol=args.tol)
                      for rep in (bw_slack(x, y), bw_spectral_slack(x)))
        doc = {**_header(args, n=int(x.shape[0])), "commutator": pair, "spectral": spec}
        return doc, 0 if pair.holds and spec.holds else 1

    result = _timed(run_bw_campaign, args.seed, args.trials, args.n, args.tol)
    doc = {**_header(args, n=args.n), "trials_run": result.commutator.trials_run,
           **field_dict(result)}
    return doc, 0 if result.commutator.violations + result.spectral.violations == 0 else 1


def cmd_bw_search(args) -> tuple:
    # only the first search of greatest ratio is kept, so memory does not grow with --trials
    best_idx, best = _timed(lambda: max(
        enumerate(run_search_campaign(args.seed, args.trials, args.n, args.max_iters)),
        key=lambda item: item[1].best_ratio))
    doc = {**_header(args, n=args.n), "seeds": args.trials, "max_iters": args.max_iters,
           "best_ratio": best.best_ratio, "best_seed_index": best_idx,
           "iterations": best.iterations, "converged": best.converged,
           "trajectory": list(best.trajectory), "pair": pair_json(best.x, best.y)}
    # a bound, not a slack: holds(2 - ratio, 0) would flip the verdict at ratio 2.000000001
    return doc, 0 if best.best_ratio <= 2.0 + tolerance(0.0) else 1


def cmd_reduce(args) -> tuple:
    t = read_tuple_file(_input(args, "TUPLE_FILE"))
    before = ddvv_slack(t)
    form = canonical_reduce(t)
    return canonical_form_json(form, before, ddvv_slack(form.reduced)), 0


def cmd_copositive(args) -> tuple:
    # P is validated and normalized once, for property K and the oracle
    p, normal = _symmetric_normalized(read_matrix_file(_input(args, "MATRIX_FILE")), "p")
    verdict = copositive_property_k(p, normal=normal)
    oracle = None if args.oracle is None else copositive_oracle(p, args.oracle, normal=normal)
    agree = None if oracle is None else (oracle.copositive == verdict.copositive)
    doc = {**_header(args, n=int(p.shape[0])), "property_k": verdict, "oracle": oracle,
           "agree": agree}
    return doc, 0 if agree in (None, True) else 1


def _model_form(name: str, args) -> SecondFundamentalForm:
    return veronese_tuple() if name == "veronese" else clifford_model(args.r, args.n)


def cmd_curvature(args) -> tuple:
    if not (args.input or args.model):
        raise InputRejected("curvature requires --input H_FILE or --model NAME")
    form = read_sff_file(args.input) if args.input else _model_form(args.model, args)
    if args.c is not None:
        form = dataclasses.replace(form, c=finite_c(args.c))  # h is validated already
    rep = curvature_report(form)
    doc = {**_header(args, n=form.n, m=form.m, c=form.c), "curvature": rep,
           "fundamental": fundamental_report(form)}
    return doc, 0 if holds(rep.geometric_slack, rep.mean_curv_sq + rep.rho_perp) else 1


def cmd_models(args) -> tuple:
    if not args.output:
        raise InputRejected("models requires --output PREFIX")
    form = _model_form(args.name, args)
    h_path, t_path = args.output + "_h.json", args.output + "_tuple.json"
    _write_json(h_path, sff_json(form))
    _write_json(t_path, tuple_json(form.to_tuple()))
    return {**_header(args), "h_file": h_path, "tuple_file": t_path}, 0


def cmd_spectrum(args) -> tuple:
    x = read_matrix_file(_input(args, "MATRIX_FILE"))
    values = t_spectrum(x)
    rep = spectral_report(values)
    doc = {**_header(args, n=int(x.shape[0])), "lambda_max": float(values[0]),
           "eigenvalues": values, "report": rep}
    return doc, 0 if rep.holds else 1


def _write_json(path: str, doc) -> None:
    """Write `doc` to `path` as one line of canonical JSON, serialized before the file opens."""
    text = dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _text_lines(path: str, value):
    """A `path: value` line for each leaf of a document: dotted paths into
    objects (a dataclass is the object of its fields) and lists of objects;
    arrays flattened and space-separated."""
    if dataclasses.is_dataclass(value):
        value = field_dict(value)
    if isinstance(value, list) and value and isinstance(value[0], dict):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _text_lines(f"{path}.{key}" if path else str(key), item)
    elif isinstance(value, (list, np.ndarray)):
        yield f"{path}: " + dumps(np.ravel(value))[1:-1].replace(",", " ") + "\n"
    else:
        yield f"{path}: " + (value if isinstance(value, str) else dumps(value)) + "\n"


def _emit(args, doc: dict, code: int) -> None:
    """Write a result: --output FILE gets the JSON document, stdout gets it under --format
    json if no file does, else the text.  models' --output is its files' prefix."""
    fmt = getattr(args, "format", None)
    if fmt is not None and args.output:
        _write_json(args.output, doc)
    elif fmt == "json":
        sys.stdout.write(dumps(doc) + "\n")
    if fmt != "json":
        sys.stdout.write("".join(_text_lines("", doc)) + ("PASS\n" if code == 0 else "FAIL\n"))


# Each subcommand takes exactly the arguments its handler reads.
_COMMANDS = {
    "ddvv-verify": (cmd_ddvv_verify, "verify the DDVV inequality on seeded symmetric tuples",
                    ("--seed", "--trials", "--n", "--m", "--tol", "--format", "--input",
                     "--output")),
    "bw-verify": (cmd_bw_verify, "verify the commutator bound on seeded random pairs",
                  ("--seed", "--trials", "--n", "--tol", "--format", "--input", "--output")),
    "bw-search": (cmd_bw_search, "alternating search for the extremal commutator ratio",
                  ("--seed", "--trials", "--n", "--max-iters", "--format", "--output")),
    "reduce": (cmd_reduce, "reduce a tuple to canonical form under O(n) x O(m)",
               ("--format", "--input", "--output")),
    "copositive": (cmd_copositive, "decide copositivity via the principal-submatrix test",
                   ("--oracle", "--format", "--input", "--output")),
    "curvature": (cmd_curvature, "curvature and fundamental-matrix report for an h file",
                  ("--model", "--r", "--n", "--c", "--format", "--input", "--output")),
    "models": (cmd_models, "emit the model configurations as h + tuple files",
               ("name", "--r", "--n", "--output")),
    "spectrum": (cmd_spectrum, "eigenvalues of the T operator of an input matrix",
                 ("--format", "--input", "--output")),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Seeded numerical verification of matrix commutator inequalities"
    parser = argparse.ArgumentParser(prog="ineqlab", description=description)
    parser.add_argument("--version", action="version", version=f"ineqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for arg in arguments:
            sp.add_argument(arg, **_ARGUMENTS[arg])
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses for every command line _direct_parse declines,
    so help, --version, usage errors and the other forms argparse accepts stay
    argparse's.  Building one costs 10-30x a parse."""
    return build_parser()


def _direct_parse(argv: list):
    """The Namespace argparse would build for COMMAND --option value ...,
    read straight from _COMMANDS and _ARGUMENTS with the same type, choices
    and defaults; None for every other command line, which argparse then
    parses or refuses: a flag not the command's own (abbreviations, -h,
    --opt=value), a value starting with '-', a value its type or choices
    refuse, an odd token count or a command with a positional argument."""
    if not all(isinstance(a, str) for a in argv) or len(argv) % 2 != 1 \
            or argv[0] not in _COMMANDS:
        return None
    command, options = argv[0], _COMMANDS[argv[0]][2]
    if not all(opt.startswith("--") for opt in options):
        return None
    values = {opt: _ARGUMENTS[opt].get("default") for opt in options}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in options or text.startswith("-"):
            return None
        spec = _ARGUMENTS[flag]
        try:
            value = spec["type"](text) if "type" in spec else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    return argparse.Namespace(command=command,
                              **{opt[2:].replace("-", "_"): v for opt, v in values.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _direct_parse(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN meet report.tolerance
            doc, code = _COMMANDS[args.command][0](args)
            _emit(args, doc, code)
        return code
    except (InputRejected, OSError, OverflowError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
