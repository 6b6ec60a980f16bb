"""The direct parse of `COMMAND --option value ...` command lines against
argparse, the reference it must equal, and main's two entry paths."""

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ineqlab import __version__, cli
from ineqlab.cli import build_parser, main

# As in test_serialize.py: a failing @given test imports libcst, whose
# import warns under filterwarnings = error.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

ROOT = Path(__file__).parents[1]
DATA = ROOT / "tests" / "data"
PARSER = build_parser()
COMMANDS = list(cli._COMMANDS)
OPTIONS = sorted(opt for opt in cli._ARGUMENTS if opt.startswith("--"))
CAMPAIGN = ["ddvv-verify", "--seed", "3", "--trials", "20", "--n", "2", "--m", "2",
            "--format", "json"]


def reference(argv: list):
    """vars() of argparse's Namespace for argv, or the code argparse exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def comparable(namespace: dict) -> dict:
    """Each value with its type; NaN, unequal to itself, as a marker."""
    return {key: (type(v), "nan" if isinstance(v, float) and math.isnan(v) else v)
            for key, v in namespace.items()}


def took_direct_path(argv: list) -> bool:
    """Assert the direct parse declines argv or builds exactly argparse's
    Namespace, and declines every argv argparse exits on; return whether it
    took argv."""
    direct = cli._direct_parse(argv)
    want = reference(argv)
    if not isinstance(want, dict):
        assert direct is None, (argv, want)
    elif direct is not None:
        assert comparable(vars(direct)) == comparable(want), argv
    return direct is not None


def golden_argvs() -> list:
    bw = [[a.replace("{data}", str(DATA)) for a in key.split()] + ["--format", "json"]
          for key in json.loads((DATA / "golden_bw_cli.json").read_text())]
    files = [[a.replace("{dir}", "/d") for a in key.split()]
             for key in json.loads((DATA / "golden_files_cli.json").read_text())]
    copositive = [["copositive", "--input", f"/d/{name}", *extra, "--format", "json"]
                  for name, *extra in map(str.split,
                                          json.loads((DATA / "golden_copositive_cli.json")
                                                     .read_text()))]
    return bw + files + copositive


class TestDirectParse:
    def test_golden_argvs(self):
        taken = [took_direct_path(argv) for argv in golden_argvs()]
        assert any(taken) and not all(taken)

    @pytest.mark.parametrize("workload", ["ddvv_campaign", "copositive_check", "bw_spectral",
                                          "model_files"])
    def test_benchmark_ops_take_it_except_models(self, tmp_path, monkeypatch, workload):
        # models has a positional NAME, the one command argparse keeps parsing
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from workloads import generate

        ops = generate(workload, 19, str(tmp_path))
        assert [took_direct_path(op["argv"]) for op in ops] == \
            [op["kind"] != "models" for op in ops]

    @pytest.mark.parametrize("argv", [
        ["ddvv-verify", "--seed", "-1"],  # a negative number
        ["bw-verify", "--tol", "-1e-3"],
        ["ddvv-verify", "--trials", "5", "--", "x"],
        ["ddvv-verify", "--tol=1e-3"],
        ["ddvv-verify", "--tri", "5"],  # an abbreviation
        ["ddvv-verify", "-h"],
        ["--version"],
        ["reduce", "--trials", "5"],  # a foreign flag
        ["ddvv-verify", "--n"],
        ["ddvv-verify", "--n", "x"],
        ["ddvv-verify", "--tol", "nan"],
        ["curvature", "--model", "torus"],
        ["models", "veronese", "--output", "p"],
        ["ddvv-verify", "--seed", 5],  # not a string
        [],
    ])
    def test_declines_every_other_form(self, argv):
        assert cli._direct_parse(argv) is None
        if all(isinstance(a, str) for a in argv):
            took_direct_path(argv)

    def test_repeated_flag_keeps_the_last(self):
        argv = ["bw-verify", "--n", "2", "--n", "4"]
        assert took_direct_path(argv) and cli._direct_parse(argv).n == 4

    def test_arguments_are_single_value_stores(self):
        # the direct parse reads only type, choices and default: a spec with
        # an action, nargs or required key would make it diverge
        for spec in cli._ARGUMENTS.values():
            assert spec.keys() <= {"type", "default", "choices", "help", "metavar"}
        sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
        for parser in sub.choices.values():
            for action in parser._actions[1:]:  # after --help
                assert type(action) is argparse._StoreAction and action.nargs is None

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_agrees_with_argparse(self, data):
        mode = data.draw(st.sampled_from(["valid", "own flags", "wild"]))
        extra = [] if mode == "valid" else ["--version", "-h", "help", ""]
        command = data.draw(st.sampled_from(COMMANDS + extra))
        own = [opt for opt in cli._COMMANDS.get(command, (0, 0, OPTIONS))[2]
               if opt.startswith("--")] or OPTIONS
        values = st.one_of(
            st.sampled_from(["0", "7", "12", "text", "json", "veronese", "clifford", "1e-9",
                             "f.json", "", "x", " 5 ", "1_000", "0x10", "1e3", "nan", "inf",
                             "-inf", "-1", "-0", "+3", "-1e-3", "--", "-", "2e308",
                             "18446744073709551616"]),
            st.integers(-2**70, 2**70).map(str),
            st.floats().map(repr),
            st.text(max_size=4))
        if mode == "valid":  # a canonical command line, values of the flag's type
            pair = st.sampled_from(own).flatmap(lambda flag: st.tuples(st.just(flag),
                                                                       valid_value(flag)))
        elif mode == "own flags":
            pair = st.tuples(st.sampled_from(own), values)
        else:
            pair = st.tuples(st.one_of(
                st.sampled_from(own), st.sampled_from(OPTIONS),
                st.builds(lambda opt, k: opt[:k], st.sampled_from(OPTIONS), st.integers(3, 6)),
                st.builds(lambda opt, v: f"{opt}={v}", st.sampled_from(OPTIONS), values),
                st.sampled_from(["-h", "--help", "--version", "--", "-", "veronese"])), values)
        argv = [command] + [token for p in data.draw(st.lists(pair, max_size=5)) for token in p]
        if mode != "valid" and data.draw(st.booleans()) and len(argv) > 1:
            del argv[data.draw(st.integers(1, len(argv) - 1))]  # an odd count
        took_direct_path(argv)


def valid_value(flag: str):
    """Command-line text that flag's type and choices accept, or nearly all of it."""
    spec = cli._ARGUMENTS[flag]
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.integers(0, 2**64).map(str)
    if "type" in spec:  # --c and --tol
        return st.one_of(st.floats(min_value=0.0).map(repr), st.sampled_from(["nan", "inf"]))
    return st.from_regex(r"[\w./{}]{1,12}", fullmatch=True)


class TestEntryPaths:
    def test_canonical_argv_skips_argparse(self, capsys, monkeypatch):
        def no_parser():
            raise AssertionError("argparse built for a canonical command line")

        want = reference(CAMPAIGN)
        monkeypatch.setattr(cli, "_parser", no_parser)
        assert main(CAMPAIGN) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["seed"], doc["n"], doc["m"], doc["tol_mode"]) == \
            (want["seed"], want["n"], want["m"], "relative(1+|lhs|)")

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        assert main(CAMPAIGN) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["ineqlab", *CAMPAIGN])
        assert main() == 0
        assert capsys.readouterr().out == want

    def test_console_script_version(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ineqlab", "--version"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"ineqlab {__version__}\n"

    @pytest.mark.parametrize("argv, message", [
        (["ddvv-verify", "--n", 3, "--trials", "3"], "argv[2] is of type int, not str"),
        (["models", "veronese", "--output", None], "argv[3] is of type NoneType, not str"),
        ([b"spectrum"], "argv[0] is of type bytes, not str"),
        ([["copositive"]], "argv[0] is of type list, not str"),
    ], ids=["direct-form", "argparse-form", "bytes", "list"])
    def test_token_not_a_string_exits_2(self, capsys, monkeypatch, argv, message):
        # argparse would raise a TypeError on it, a traceback; it is never reached
        monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("argparse reached"))
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
