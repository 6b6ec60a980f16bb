import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqlab import bw, campaigns, cli, copositive, curvature, ddvv, linalg, report
from ineqlab.cli import build_parser, main
from ineqlab.ddvv import extremal_case_a, extremal_case_b
from ineqlab.serialize import dumps, matrix_json, pair_json, sff_json, tuple_json
from ineqlab.curvature import SecondFundamentalForm
from ineqlab.seeded import RandomStream

DATA = Path(__file__).parent / "data"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDdvvVerify:
    def test_campaign_passes(self, capsys):
        code, doc = run_json(capsys, ["ddvv-verify", "--seed", "42", "--trials", "500",
                                      "--n", "3", "--m", "3"])
        assert code == 0
        assert doc["violations"] == 0
        assert doc["version"]
        assert doc["tol"] == 1e-9

    def test_injected_extremal_tuple(self, capsys, tmp_path):
        path = write(tmp_path, "t.json", dumps(tuple_json(extremal_case_a(2, 1.0))))
        code, doc = run_json(capsys, ["ddvv-verify", "--input", path])
        assert code == 0
        assert abs(doc["min_slack"]) <= 1e-12
        assert doc["trials_run"] == 1

    def test_trivial_n1(self, capsys):
        code, doc = run_json(capsys, ["ddvv-verify", "--n", "1", "--m", "3",
                                      "--trials", "50"])
        assert code == 0
        assert doc["violations"] == 0

    def test_strict_tolerance_violation_exit(self, capsys, tmp_path):
        # fixed tol -1e-6 demands slack >= 1e-6; the equality tuple sits at 0
        path = write(tmp_path, "t.json", dumps(tuple_json(extremal_case_a(2, 1.0))))
        code, doc = run_json(capsys, ["ddvv-verify", "--input", path, "--tol=-1e-6"])
        assert code == 1
        assert doc["violations"] == 1

    def test_config_error_exit(self, capsys):
        assert main(["ddvv-verify", "--n", "40"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit(self, capsys):
        assert main(["ddvv-verify", "--input", "/nonexistent/file.json"]) == 2

    def test_bool_count_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "t.json",
                     '{"n": true, "m": 1, "matrices": [{"n": 1, "entries": [[2.0]]}]}')
        assert main(["ddvv-verify", "--input", path]) == 2
        assert "'n' must be a positive integer" in capsys.readouterr().err


class TestBwVerify:
    def test_campaign(self, capsys):
        code, doc = run_json(capsys, ["bw-verify", "--seed", "7", "--trials", "300",
                                      "--n", "4"])
        assert code == 0
        assert doc["commutator"]["violations"] == 0
        assert doc["spectral"]["violations"] == 0

    def test_injected_sharp_pair(self, capsys, tmp_path):
        x = np.zeros((2, 2)); x[0, 1] = 1.0
        y = np.zeros((2, 2)); y[1, 0] = 1.0
        path = write(tmp_path, "p.json", dumps(pair_json(x, y)))
        code, doc = run_json(capsys, ["bw-verify", "--input", path])
        assert code == 0
        assert abs(doc["commutator"]["slack"]) <= 1e-12
        assert abs(doc["spectral"]["slack"]) <= 1e-12

    def test_fixed_tolerance_applies_to_input(self, capsys, tmp_path):
        # fixed tol -1e-6 demands slack >= 1e-6; the sharp pair sits at 0
        x = np.zeros((2, 2)); x[0, 1] = 1.0
        path = write(tmp_path, "p.json", dumps(pair_json(x, x.T.copy())))
        code, doc = run_json(capsys, ["bw-verify", "--input", path, "--tol=-1e-6"])
        assert code == 1
        assert doc["tol_mode"] == "fixed"

    def test_tiny_equality_pair_holds(self, capsys, tmp_path):
        # an equality case; ||x||^2 underflowed, so the "unit" x was not unit
        # and the spectral side read 2.0000223, a false counterexample
        x = np.diag([1e-160, -1e-160])
        y = np.zeros((2, 2)); y[0, 1] = 1e-160
        path = write(tmp_path, "p.json", dumps(pair_json(x, y)))
        code, doc = run_json(capsys, ["bw-verify", "--input", path])
        assert code == 0
        assert doc["spectral"]["lhs"] == pytest.approx(2.0, abs=1e-12)
        assert doc["spectral"]["holds"] is True

    def test_sanity_bound_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        x = np.zeros((2, 2)); x[0, 1] = 1.0
        path = write(tmp_path, "p.json", dumps(pair_json(x, x.T.copy())))
        monkeypatch.setattr(bw, "commutator", lambda a, b: 2.0 * (a @ b - b @ a))
        assert main(["bw-verify", "--input", path]) == 3
        assert "constant-3" in capsys.readouterr().err

    def test_injected_commuting_pair(self, capsys, tmp_path):
        x = np.diag([1.0, 2.0])
        path = write(tmp_path, "p.json", dumps(pair_json(x, x @ x)))
        code, doc = run_json(capsys, ["bw-verify", "--input", path])
        assert code == 0
        assert doc["commutator"]["lhs"] == 0.0
        assert doc["commutator"]["slack"] == doc["commutator"]["rhs"]


class TestFixedTolReports:
    """Under --tol an --input run's reports carry that tol, and their holds
    fields agree with the exit code."""

    @pytest.mark.parametrize("tol", ["-10", "-1e-6", "0", "1e-3"])
    @pytest.mark.parametrize("argv,reports", [
        ("ddvv-verify --input {data}/golden_veronese_tuple.json", ["report"]),
        ("bw-verify --input {data}/bw_pair_sharp.json", ["commutator", "spectral"]),
        ("bw-verify --input {data}/bw_pair_n5.json", ["commutator", "spectral"]),
    ], ids=["ddvv", "bw-sharp", "bw-n5"])
    def test_holds_matches_the_exit_code(self, capsys, argv, reports, tol):
        argv = [a.replace("{data}", str(DATA)) for a in argv.split()] + [f"--tol={tol}"]
        code, doc = run_json(capsys, argv)
        assert [doc[key]["tol"] for key in reports] == [float(tol)] * len(reports)
        assert code == (0 if all(doc[key]["holds"] for key in reports) else 1)


class TestBwSearch:
    def test_small_search(self, capsys):
        code, doc = run_json(capsys, ["bw-search", "--n", "2", "--seed", "5",
                                      "--trials", "10", "--max-iters", "100"])
        assert code == 0
        assert doc["best_ratio"] == pytest.approx(2.0, abs=1e-6)
        assert doc["trajectory"][-1] == doc["best_ratio"]

    def test_zero_iters(self, capsys):
        code, doc = run_json(capsys, ["bw-search", "--n", "3", "--trials", "2",
                                      "--max-iters", "0"])
        assert code == 0
        assert doc["converged"] is False
        assert len(doc["trajectory"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--n", "13"], "n = 13 outside the documented cap 2..12"),
        (["--n", "0"], "n = 0 outside the documented cap 2..12"),
        (["--trials", "0"], "need at least one search seed"),
        (["--max-iters", "-1"], "max_iters must be >= 0"),
    ])
    def test_bad_configuration_exits_2(self, capsys, argv, message):
        assert main(["bw-search"] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_memory_does_not_grow_with_trials(self, capsys):
        # only the best search is kept: 20000 kept results peaked at 11.4 MiB
        tracemalloc.start()
        try:
            code = main(["bw-search", "--n", "2", "--trials", "20000", "--max-iters", "5"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 4 * 2**20
        assert "best_seed_index: 12618\n" in capsys.readouterr().out


class TestReduce:
    def test_near_canonical_input(self, capsys, tmp_path):
        path = write(tmp_path, "t.json", dumps(tuple_json(extremal_case_b(3, 0.5))))
        out = tmp_path / "reduced.json"
        code = main(["reduce", "--input", path, "--output", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert not doc["degenerate"]
        assert doc["slack_before"]["slack"] == pytest.approx(doc["slack_after"]["slack"],
                                                             rel=1e-9, abs=1e-9)
        # the input is already canonical up to basis choice inside degenerate
        # eigenspaces, so q is a signed permutation and the Gram is unchanged
        q = np.abs(np.array(doc["q"]["entries"]))
        assert np.max(np.abs(q @ q.T - np.eye(3))) < 1e-9
        assert np.max(np.abs(np.round(q) - q)) < 1e-9
        reduced = [np.array(mj["entries"]) for mj in doc["tuple"]["matrices"]]
        gram = np.array([[np.sum(a * b) for b in reduced] for a in reduced])
        assert np.max(np.abs(gram - np.diag([1.0, 0.5, 0.5]))) < 1e-9

    def test_zero_tuple_degenerate(self, capsys, tmp_path):
        z = {"n": 2, "m": 2, "matrices": [matrix_json(np.zeros((2, 2)))] * 2}
        path = write(tmp_path, "t.json", dumps(z))
        code, doc = run_json(capsys, ["reduce", "--input", path])
        assert code == 0
        assert doc["degenerate"] is True

    def test_requires_input(self, capsys):
        assert main(["reduce"]) == 2


class TestCopositive:
    def test_copositive_matrix(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", dumps(matrix_json(np.array([[1.0, 2.0], [2.0, 1.0]]))))
        code, doc = run_json(capsys, ["copositive", "--input", path])
        assert code == 0
        assert doc["property_k"]["copositive"] is True

    def test_certificate_and_oracle_agreement(self, capsys, tmp_path):
        path = write(tmp_path, "m.json",
                     dumps(matrix_json(np.array([[0.0, -1.0], [-1.0, 0.0]]))))
        code, doc = run_json(capsys, ["copositive", "--input", path, "--oracle", "10"])
        assert code == 0
        assert doc["property_k"]["copositive"] is False
        assert doc["agree"] is True
        assert doc["oracle"]["certificate"] == [0.5, 0.5]

    def test_identity(self, capsys, tmp_path):
        path = write(tmp_path, "m.txt", "2\n1 0\n0 1\n")
        code, doc = run_json(capsys, ["copositive", "--input", path])
        assert code == 0
        assert doc["property_k"]["copositive"] is True

    def test_oracle_at_its_finest_resolution_agrees(self, capsys, tmp_path):
        # PSD of rank one with a zero inside the simplex, where the oracle's
        # partition stops at the lattice spacing of resolution 40
        path = write(tmp_path, "m.txt", "2\n1 -1.4142135623730951\n-1.4142135623730951 2\n")
        code, doc = run_json(capsys, ["copositive", "--input", path, "--oracle", "40"])
        assert code == 0
        assert doc["oracle"]["copositive"] is True and doc["agree"] is True

    def test_oracle_refutes_at_its_documented_resolution(self, capsys, tmp_path):
        # P = G G^T - t J, t 1.2% over the least x^T G G^T x on the unit
        # simplex (G from default_rng(5)): not copositive, by a margin the
        # partition sees down to edge sqrt(2)/R at R = 4 and misses at 2 sqrt(2)/R
        path = write(tmp_path, "m.txt", "3\n"
                     "0.46818110596438867 -1.6580486403588712 -1.3924863412977735\n"
                     "-1.6580486403588712 7.253796784577934 3.8008206700303857\n"
                     "-1.3924863412977735 3.8008206700303857 4.9858296740164185\n")
        code, doc = run_json(capsys, ["copositive", "--input", path, "--oracle", "4"])
        assert code == 0 and doc["agree"] is True
        assert doc["property_k"]["copositive"] is doc["oracle"]["copositive"] is False

    def test_over_cap_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", dumps(matrix_json(np.eye(17))))
        assert main(["copositive", "--input", path]) == 2
        assert "cap 16" in capsys.readouterr().err

    def test_oversized_oracle_rejected(self, capsys, tmp_path):
        # I - J/16 is copositive with a zero at the simplex's centre, so the
        # partition keeps splitting there and outruns its budget at m = 16
        path = write(tmp_path, "m.json", dumps(matrix_json(np.eye(16) - 1.0 / 16.0)))
        assert main(["copositive", "--input", path, "--oracle", "40"]) == 2
        assert capsys.readouterr().err == (
            "error: oracle at m = 16, resolution 40 needs more than 16384 simplices x m^2, "
            "over the budget of 4194304; lower the resolution\n")

    def test_huge_entries_not_copositive(self, capsys, tmp_path):
        # ||p||^2 overflows for P = diag(1e200, -1e200); both tests still see p_22 < 0
        path = write(tmp_path, "m.txt", "2\n1e200 0\n0 -1e200\n")
        code, doc = run_json(capsys, ["copositive", "--input", path, "--oracle", "4"])
        assert code == 0
        assert doc["property_k"] == {"copositive": False, "certificate": [0.0, 1.0],
                                     "failing_submatrix": [1]}
        assert doc["oracle"]["copositive"] is False
        assert doc["oracle"]["certificate"] == [0.0, 1.0]
        assert doc["agree"] is True

    @pytest.mark.parametrize("text,twin,extra", [
        # ||p||_F overflowed, so neg_eps was inf and p read as copositive (exit 0)
        ("2\n1e308 1e308\n1e308 -1e308\n", "2\n1 1\n1 -1\n", []),
        # 2 P x overflowed in the oracle's polish, which ended in an IndexError
        ("2\n1e308 0\n0 -1e308\n", "2\n1 0\n0 -1\n", ["--oracle", "10"]),
    ], ids=["norm-overflows", "oracle-polish-overflows"])
    def test_norm_over_half_dbl_max_gets_its_twins_verdict(self, capsys, tmp_path, text, twin,
                                                           extra):
        # both tests decide p / 2^e, so p gets the document of its unit-scale twin
        assert main(["copositive", "--input", write(tmp_path, "twin.txt", twin), *extra]) == 0
        want = capsys.readouterr().out
        assert main(["copositive", "--input", write(tmp_path, "m.txt", text), *extra]) == 0
        assert capsys.readouterr().out == want

    def test_norm_under_half_dbl_max_gets_a_verdict(self, capsys, tmp_path):
        # ||p||_F = 5.7e307: both tests see p_22 < 0
        path = write(tmp_path, "m.txt", "2\n4e307 0\n0 -4e307\n")
        code, doc = run_json(capsys, ["copositive", "--input", path, "--oracle", "10"])
        assert code == 0
        assert doc["property_k"]["failing_submatrix"] == [1]
        assert doc["oracle"]["certificate"] == [0.0, 1.0]

    def test_near_cap_edge_certificate(self, capsys, tmp_path):
        # ||p||_F = 8.5e307; the edge test takes sqrt(q_ii) sqrt(q_jj), since
        # q_ii q_jj = 1.6e615 would overflow
        path = write(tmp_path, "m.txt", "2\n4e307 -4.5e307\n-4.5e307 4e307\n")
        code, doc = run_json(capsys, ["copositive", "--input", path, "--oracle", "10"])
        assert code == 0
        assert doc["oracle"] == {"copositive": False, "certificate": [0.5, 0.5],
                                 "failing_submatrix": None}
        assert doc["agree"] is True

    def test_antisymmetric_pair_near_dbl_max_rejected(self, capsys, tmp_path):
        # a_12 - a_21 = 2e308 overflowed in the symmetry check, with a warning
        path = write(tmp_path, "m.txt", "2\n0 1e308\n-1e308 0\n")
        assert main(["copositive", "--input", path]) == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_accepted_input_gets_a_verdict(self, capsys, tmp_path):
        # the 1e-8 asymmetry is within tolerance for ||p|| = 1e6, though not
        # for the 2 x 2 principal submatrix it sits in
        path = write(tmp_path, "m.txt", "3\n1e6 0 0\n0 1 0\n0 1e-8 1\n")
        code, doc = run_json(capsys, ["copositive", "--input", path])
        assert code == 0
        assert doc["property_k"]["copositive"] is True


class TestCurvature:
    def test_zero_form(self, capsys, tmp_path):
        form = SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=-1.0)
        path = write(tmp_path, "h.json", dumps(sff_json(form)))
        code, doc = run_json(capsys, ["curvature", "--input", path])
        assert code == 0
        assert doc["curvature"]["rho"] == -1.0
        assert doc["fundamental"]["pinch"] == 0.0

    def test_veronese_model_flag(self, capsys):
        code, doc = run_json(capsys, ["curvature", "--model", "veronese"])
        assert code == 0
        assert doc["fundamental"]["sigma_sq"] == pytest.approx(4.0 / 3.0, abs=0.0)
        assert doc["fundamental"]["pinch"] == pytest.approx(2.0, abs=1e-12)

    def test_clifford_model_flag(self, capsys):
        code, doc = run_json(capsys, ["curvature", "--model", "clifford", "--r", "1",
                                      "--n", "2"])
        assert code == 0
        assert doc["fundamental"]["sigma_sq"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("c", ['"x"', "null"])
    def test_non_numeric_c_rejected(self, capsys, tmp_path, c):
        path = write(tmp_path, "h.json", '{"n": 2, "m": 1, "c": %s, "h": [[[1, 0], [0, 1]]]}' % c)
        assert main(["curvature", "--input", path]) == 2
        assert "'c'" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["1" + "0" * 400, "-1" + "0" * 400, "NaN", "-Infinity"],
                             ids=["1e400", "-1e400", "nan", "-inf"])
    def test_c_outside_the_float_range_rejected(self, capsys, tmp_path, c):
        path = write(tmp_path, "h.json", '{"n": 2, "m": 1, "c": %s, "h": [[[1, 0], [0, 1]]]}' % c)
        assert main(["curvature", "--input", path]) == 2
        assert "field 'c' must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(2, 12), m=st.integers(1, 12))
    def test_slack_and_verdict_free_of_c(self, seed, n, m):
        # |H|^2 + c - rho - rho_perp is formed with c cancelled; h2 + c - (c + x)
        # once lost the slack's low bits to a large c, and its sign at 1e300
        form = SecondFundamentalForm.from_array(RandomStream(seed).symmetric_tuple(n, m), c=0.0)
        seen = set()
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "h.json", Path(tmp) / "out.json"
            path.write_text(dumps(sff_json(form)))
            for c in ("-1", "0", "0.1", "1e16", str(2**53), "1e300"):
                code = main(["curvature", "--input", str(path), "--c", c, "--output", str(out),
                             "--format", "json"])
                doc = json.loads(out.read_text(), parse_float=str, parse_int=str)
                seen.add((code, doc["curvature"]["geometric_slack"]))  # 17g text: the bits
        assert len(seen) == 1, seen

    def test_large_integer_c_accepted(self, capsys, tmp_path):
        path = write(tmp_path, "h.json",
                     '{"n": 2, "m": 1, "c": 1%s, "h": [[[1, 0], [0, 1]]]}' % ("0" * 300))
        code, doc = run_json(capsys, ["curvature", "--input", path])
        assert code in (0, 1) and doc["c"] == 1e300

    @pytest.mark.parametrize("command", ["curvature", "models"])
    def test_clifford_over_the_cap_rejected(self, capsys, tmp_path, command):
        argv = (["curvature", "--model", "clifford"] if command == "curvature"
                else ["models", "clifford", "--output", str(tmp_path / "m")])
        assert main(argv + ["--r", "1", "--n", "13"]) == 2
        assert "n = 13 is over the cap n <= 12" in capsys.readouterr().err

    def test_clifford_huge_n_refused_unallocated(self, capsys):
        # the n x n diagonal would take 80 GB at n = 100000
        tracemalloc.start()
        try:
            code = main(["curvature", "--model", "clifford", "--r", "1", "--n", "100000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20

    def test_ambient_override(self, capsys, tmp_path):
        form = SecondFundamentalForm.from_array(np.zeros((1, 2, 2)), c=1.0)
        path = write(tmp_path, "h.json", dumps(sff_json(form)))
        code, doc = run_json(capsys, ["curvature", "--input", path, "--c=-1"])
        assert code == 0
        assert doc["c"] == -1.0
        assert doc["curvature"]["rho"] == -1.0


class TestModelsGolden:
    @pytest.mark.parametrize("name,args,stem", [
        ("clifford", ["--r", "1", "--n", "2"], "golden_clifford_1_2"),
        ("clifford", ["--r", "2", "--n", "4"], "golden_clifford_2_4"),
        ("veronese", [], "golden_veronese"),
    ])
    def test_golden_files(self, tmp_path, capsys, name, args, stem):
        prefix = str(tmp_path / "out")
        assert main(["models", name, *args, "--output", prefix]) == 0
        capsys.readouterr()
        for suffix in ("_h.json", "_tuple.json"):
            got = Path(prefix + suffix).read_bytes()
            want = (DATA / (stem + suffix)).read_bytes()
            assert got == want


GOLDEN_BW = json.loads((DATA / "golden_bw_cli.json").read_text())


class TestBwGolden:
    """Exit code and JSON stdout of bw-verify (campaigns and --input), spectrum
    and bw-search, pinned byte for byte; "{data}" in an argv is tests/data."""

    @pytest.mark.parametrize("argv", list(GOLDEN_BW))
    def test_bytes(self, capsys, argv):
        code = main([a.replace("{data}", str(DATA)) for a in argv.split()] + ["--format", "json"])
        assert {"code": code, "stdout": capsys.readouterr().out} == GOLDEN_BW[argv]


GOLDEN_COPOSITIVE = json.loads((DATA / "golden_copositive_cli.json").read_text())


class TestCopositiveGolden:
    """Exit code and JSON stdout of copositive, pinned byte for byte.  A case
    is named m<size>-<kind>.<txt|json> [--oracle R]: m 1..16; PSD plus
    nonnegative, Gaussian, planted negative pair, g g^T - 0.3 I, exactly
    tied spectra (-I, I, 0, J - I, (k - 1/2) I - J failing first at size k);
    its input file text is stored with it."""

    @pytest.mark.parametrize("case", list(GOLDEN_COPOSITIVE))
    def test_bytes(self, capsys, tmp_path, case):
        name, *extra = case.split()
        want = GOLDEN_COPOSITIVE[case]
        path = write(tmp_path, name, want["input"])
        code = main(["copositive", "--input", path, *extra, "--format", "json"])
        assert {"code": code, "stdout": capsys.readouterr().out} == \
            {"code": want["code"], "stdout": want["stdout"]}


GOLDEN_FILES = json.loads((DATA / "golden_files_cli.json").read_text())


class TestFilesGolden:
    """Exit code, JSON stdout and --output file text of reduce, curvature
    (--input, --model, --c), spectrum (text and JSON matrix files) and
    ddvv-verify (--input and campaign cells), pinned byte for byte.  A case
    is its argv, with "{dir}" for the directory its input files are written
    to: n, m in 1..12, Gaussian entries and the edge values -0.0, 5e-324,
    1e-300, 1e300, 2^53, 1e16, 0.1 and exact zeros."""

    @pytest.mark.parametrize("argv", list(GOLDEN_FILES))
    def test_bytes(self, capsys, tmp_path, argv):
        want = GOLDEN_FILES[argv]
        for name, text in want["files"].items():
            write(tmp_path, name, text)
        code = main([a.replace("{dir}", str(tmp_path)) for a in argv.split()])
        outputs = {name: (tmp_path / name).read_text() for name in want["outputs"]}
        assert {"code": code, "stdout": capsys.readouterr().out, "outputs": outputs} == \
            {"code": want["code"], "stdout": want["stdout"], "outputs": want["outputs"]}


class TestSpectrum:
    def test_nilpotent(self, capsys, tmp_path):
        path = write(tmp_path, "x.txt", "2\n0 1\n0 0\n")
        code, doc = run_json(capsys, ["spectrum", "--input", path])
        assert code == 0
        assert doc["lambda_max"] == pytest.approx(2.0, abs=1e-12)
        assert len(doc["eigenvalues"]) == 4

    def test_solves_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        path = write(tmp_path, "x.txt", "2\n0 1\n0 0\n")
        code, doc = run_json(capsys, ["spectrum", "--input", path])
        assert code == 0 and len(calls) == 1
        assert doc["report"]["lhs"] == doc["lambda_max"]

    def test_solver_failure_is_reported(self, capsys, tmp_path, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        path = write(tmp_path, "x.txt", "2\n0 1\n0 0\n")
        assert main(["spectrum", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: eigensolver did not converge: "
                                "Eigenvalues did not converge\n")

    @pytest.mark.parametrize("scale", ["1e200", "1e-170"])
    def test_extreme_scale_attains_the_bound(self, capsys, tmp_path, scale):
        # lambda_max(T) = 2 for x = diag(s, -s) at every scale; ||x||^2
        # overflowed at 1e200 (a warning, then lambda_max 0) and underflowed
        # at 1e-170 ("x must be nonzero")
        path = write(tmp_path, "x.txt", f"2\n{scale} 0\n0 -{scale}\n")
        code, doc = run_json(capsys, ["spectrum", "--input", path])
        assert code == 0
        assert doc["lambda_max"] == pytest.approx(2.0, abs=1e-12)
        assert doc["report"]["holds"] is True

    def test_norm_past_dbl_max_gets_its_twins_spectrum(self, capsys, tmp_path):
        # ||x||_F = 2e308: x divided by that inf norm was the zero matrix,
        # lambda_max 0; x / 2^e divided by its own norm is the twin's unit x
        assert main(["spectrum", "--input", write(tmp_path, "twin.txt", "2\n1 1\n1 -1\n"),
                     "--format", "json"]) == 0
        want = capsys.readouterr().out
        path = write(tmp_path, "x.txt", "2\n1e308 1e308\n1e308 -1e308\n")
        assert main(["spectrum", "--input", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == want

    def test_over_cap_rejected_before_building(self, capsys, tmp_path, monkeypatch):
        # T at n = 100 would take about 2.4 GB to build; n = 13 is refused unbuilt
        monkeypatch.setattr(bw, "t_matrices", lambda xu: pytest.fail("T was built"))
        path = write(tmp_path, "x.json", dumps(matrix_json(np.eye(13))))
        assert main(["spectrum", "--input", path]) == 2
        assert "cap n <= 12" in capsys.readouterr().err


class TestTupleLengthCap:
    """Tuple and h files hold at most 12 members of size at most 12; m = 13 or
    n = 13 is refused at parse time, before any pairwise commutator stack is built."""

    @staticmethod
    def files(tmp_path, m: int, n: int = 2) -> dict:
        members = np.stack([np.diag([1.0 + k] + [-1.0] * (n - 1)) for k in range(m)])
        form = SecondFundamentalForm.from_array(members, c=1.0)
        tuple_path = write(tmp_path, "t.json", dumps(tuple_json(form)))
        return {"ddvv-verify": tuple_path, "reduce": tuple_path,
                "curvature": write(tmp_path, "h.json", dumps(sff_json(form)))}

    @staticmethod
    def refused_unbuilt(capsys, monkeypatch, command, path, message):
        for module in (ddvv, curvature):
            monkeypatch.setattr(module, "commutator_norms_sq",
                                lambda stack: pytest.fail("pair stacks were built"))
        assert main([command, "--input", path]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ddvv-verify", "reduce", "curvature"])
    def test_m13_rejected_unbuilt(self, capsys, tmp_path, monkeypatch, command):
        self.refused_unbuilt(capsys, monkeypatch, command, self.files(tmp_path, 13)[command],
                             "field 'm' = 13 is over the cap m <= 12")

    @pytest.mark.parametrize("command", ["ddvv-verify", "reduce", "curvature"])
    def test_m12_accepted(self, capsys, tmp_path, command):
        assert run_json(capsys, [command, "--input", self.files(tmp_path, 12)[command]])[0] == 0

    @pytest.mark.parametrize("command", ["ddvv-verify", "reduce", "curvature"])
    def test_n13_rejected_unbuilt(self, capsys, tmp_path, monkeypatch, command):
        self.refused_unbuilt(capsys, monkeypatch, command, self.files(tmp_path, 2, 13)[command],
                             "field 'n' = 13 is over the cap n <= 12")

    @pytest.mark.parametrize("command", ["ddvv-verify", "reduce", "curvature"])
    def test_n12_accepted(self, capsys, tmp_path, command):
        assert run_json(capsys, [command, "--input", self.files(tmp_path, 2, 12)[command]])[0] == 0


class TestValidationCounts:
    """Outside input is validated once; what the program derives from it is
    not validated again."""

    @staticmethod
    def count_from_matrices(monkeypatch) -> list:
        calls = []
        original = ddvv.SymmetricTuple.from_matrices.__func__
        monkeypatch.setattr(ddvv.SymmetricTuple, "from_matrices",
                            classmethod(lambda cls, mats: calls.append(1) or original(cls, mats)))
        return calls

    @pytest.mark.parametrize("argv, checks", [
        (["reduce", "--input", "{data}/golden_veronese_tuple.json"], 2),  # input, audit replay
        (["curvature", "--input", "{tmp}/h.json"], 1),
        # P is validated once, for both property K and the oracle
        (["copositive", "--input", "{tmp}/m.txt", "--oracle", "6"], 1),
    ], ids=["reduce", "curvature", "copositive-oracle"])
    def test_symmetry_checks_per_command(self, capsys, tmp_path, monkeypatch, argv, checks):
        write(tmp_path, "h.json", dumps(sff_json(curvature.veronese_tuple())))
        write(tmp_path, "m.txt", "3\n1 -2 0\n-2 1 0\n0 0 1\n")
        calls = self.count_check_symmetric(monkeypatch)
        argv = [a.replace("{data}", str(DATA)).replace("{tmp}", str(tmp_path)) for a in argv]
        assert run_json(capsys, argv)[0] == 0
        assert len(calls) == checks

    @pytest.mark.parametrize("oracle", [[], ["--oracle", "6"]], ids=["alone", "oracle"])
    def test_one_normalization_per_copositive_command(self, capsys, tmp_path, monkeypatch,
                                                     oracle):
        # the symmetry check's P / 2^e is the P both verdicts decide
        write(tmp_path, "m.txt", "3\n1 -2 0\n-2 1 0\n0 0 1\n")
        calls, original = [], linalg.normalized
        for module in (linalg, bw, copositive, curvature, ddvv):
            if getattr(module, "normalized", None) is original:
                monkeypatch.setattr(module, "normalized", lambda a: calls.append(1) or original(a))
        checks = self.count_check_symmetric(monkeypatch)
        assert run_json(capsys, ["copositive", "--input", f"{tmp_path}/m.txt", *oracle])[0] == 0
        assert (len(calls), len(checks)) == (1, 1)

    def test_derived_matrices_are_not_checked(self, monkeypatch):
        # the Gram matrix, the rotated leader and the arrowheads are built
        # from validated input; canonical_reduce's one check is its replay
        t = extremal_case_b(3, 0.5)
        form = curvature.veronese_tuple()
        b = np.array([[0.0, 1.0], [2.0, 3.0]])
        calls = self.count_check_symmetric(monkeypatch)
        counts = []
        for call in (lambda: ddvv.canonical_reduce(t), lambda: curvature.fundamental_report(form),
                     lambda: ddvv.p_matrix_bound([1.0, 2.0, 0.5]),
                     lambda: bw.bw_case_matrix_bound(b, b.T)):
            before = len(calls)
            call()
            counts.append(len(calls) - before)
        assert counts == [1, 0, 0, 0]

    def test_svd_reduction_validates_each_input_once(self, monkeypatch):
        # the SVD kernel takes the x that as_pair validated; small_s1_check
        # adds its unit x and the y of its right side
        calls, patched = self.count_calls(monkeypatch, "as_matrix")
        assert patched == ["ineqlab.bw", "ineqlab.cli", "ineqlab.copositive", "ineqlab.ddvv",
                           "ineqlab.linalg"]
        x, y = np.diag([0.5, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]])
        counts = []
        for call in (lambda: bw.svd_reduction(x, y), lambda: bw.small_s1_check(x, y)):
            before = len(calls)
            call()
            counts.append(len(calls) - before)
        assert counts == [2, 4]

    @staticmethod
    def count_calls(monkeypatch, name: str) -> tuple:
        """Count calls of linalg's `name`, in every module that imports it:
        the list that grows by one per call, and the patched modules."""
        calls, patched, original = [], [], getattr(linalg, name)
        for module in (bw, campaigns, cli, copositive, curvature, ddvv, linalg, report):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, lambda *args: calls.append(1) or original(*args))
                patched.append(module.__name__)
        return calls, patched

    @staticmethod
    def count_check_symmetric(monkeypatch) -> list:
        """Count linalg.check_symmetric calls, in every module that imports it."""
        calls, patched = TestValidationCounts.count_calls(monkeypatch, "check_symmetric")
        assert patched == ["ineqlab.cli", "ineqlab.copositive", "ineqlab.ddvv", "ineqlab.linalg"]
        return calls

    def test_campaign_checks_no_member(self, capsys, monkeypatch):
        calls = self.count_check_symmetric(monkeypatch)
        code, doc = run_json(capsys, ["ddvv-verify", "--seed", "3", "--trials", "200",
                                      "--n", "3", "--m", "4"])
        assert code == 0 and doc["trials_run"] == 200
        assert calls == []

    def test_tuple_file_is_checked_once(self, capsys, monkeypatch):
        # the positive control of test_campaign_checks_no_member
        calls = self.count_check_symmetric(monkeypatch)
        code, _ = run_json(capsys, ["ddvv-verify", "--input", f"{DATA}/golden_veronese_tuple.json"])
        assert (code, len(calls)) == (0, 1)

    def test_reduce_builds_the_input_and_the_replay(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "t.json", dumps(tuple_json(extremal_case_b(3, 0.5))))
        calls = self.count_from_matrices(monkeypatch)
        assert run_json(capsys, ["reduce", "--input", path])[0] == 0
        assert len(calls) == 2

    def test_curvature_validates_the_h_file_once(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "h.json", dumps(sff_json(curvature.veronese_tuple())))
        calls = self.count_from_matrices(monkeypatch)
        assert run_json(capsys, ["curvature", "--input", path])[0] == 0
        assert len(calls) == 1

    def test_curvature_override_validates_the_h_file_once(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "h.json", dumps(sff_json(curvature.veronese_tuple())))
        calls = self.count_from_matrices(monkeypatch)
        code, doc = run_json(capsys, ["curvature", "--input", path, "--c", "2"])
        assert (code, doc["c"], len(calls)) == (0, 2.0, 1)

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_curvature_override_must_be_finite(self, capsys, tmp_path, c):
        path = write(tmp_path, "h.json", dumps(sff_json(curvature.veronese_tuple())))
        assert main(["curvature", "--input", path, "--c", c]) == 2
        assert capsys.readouterr().err == "error: ambient curvature c must be finite\n"

    def test_models_validates_the_model_once(self, capsys, tmp_path, monkeypatch):
        calls = self.count_from_matrices(monkeypatch)
        prefix = str(tmp_path / "m")
        assert main(["models", "clifford", "--r", "1", "--n", "3", "--output", prefix]) == 0
        assert len(calls) == 1


class TestOneVerdict:
    """Every slack verdict is report.holds: with holds patched to refuse every
    trial, in every module that imports it, each verdict turns."""

    @staticmethod
    def refuse_all(monkeypatch) -> list:
        patched, original = [], report.holds
        for module in (report, bw, campaigns, cli, copositive, curvature, ddvv, linalg):
            if getattr(module, "holds", None) is original:
                monkeypatch.setattr(module, "holds",
                                    lambda slack, scale, fixed=None: np.zeros(np.shape(slack), bool))
                patched.append(module.__name__)
        return patched

    @staticmethod
    def solved_rows(monkeypatch) -> list:
        solved, original = [], campaigns.eigvalsh
        monkeypatch.setattr(campaigns, "eigvalsh", lambda a: solved.append(len(a)) or original(a))
        return solved

    def verdicts(self, capsys, monkeypatch) -> tuple:
        solved = self.solved_rows(monkeypatch)
        pairs, spectral = campaigns.run_bw_campaign(5, 40, 3)
        return (ddvv.ddvv_slack(extremal_case_b(3, 0.5)).holds,
                campaigns.run_ddvv_campaign(5, 40, 3, 2).violations,
                pairs.violations, spectral.violations, sum(solved),
                main(["curvature", "--model", "veronese"]))

    def test_the_verdicts_hold_as_drawn(self, capsys, monkeypatch):
        held, ddvv_bad, pair_bad, spec_bad, solved, code = self.verdicts(capsys, monkeypatch)
        assert (held, ddvv_bad, pair_bad, spec_bad, code) == (True, 0, 0, 0, 0) and solved >= 1

    def test_every_verdict_goes_through_holds(self, capsys, monkeypatch):
        assert self.refuse_all(monkeypatch) == ["ineqlab.report", "ineqlab.campaigns",
                                                "ineqlab.cli"]
        held, ddvv_bad, pair_bad, spec_bad, solved, code = self.verdicts(capsys, monkeypatch)
        assert (held, ddvv_bad, pair_bad, code) == (False, 40, 40, 1)
        assert spec_bad == solved >= 1


class TestParser:
    def test_each_subcommand_takes_only_its_arguments(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in sp._actions)
                  for name, sp in sub.choices.items()}
        assert counts == {"ddvv-verify": 8, "bw-verify": 7, "bw-search": 6, "reduce": 3,
                          "copositive": 4, "curvature": 7, "models": 4, "spectrum": 3}

    @pytest.mark.parametrize("argv", [
        ["reduce", "--trials", "5"],
        ["models", "veronese", "--seed", "1", "--output", "p"],
        ["spectrum", "--n", "3"],
        ["ddvv-verify", "--c", "1"],
    ])
    def test_foreign_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["ddvv-verify", "--trials", "100000", "--n", "6", "--m", "6", "--tol=nan"],
        ["ddvv-verify", "--tol=inf"],
        ["bw-verify", "--input", str(DATA / "bw_pair_n5.json"), "--tol=nan"],
        ["bw-verify", "--tol=-inf"],
        ["ddvv-verify", "--tol", "x"],
    ], ids=["campaign-nan", "campaign-inf", "input-nan", "bw-campaign-minus-inf", "not-a-float"])
    def test_non_finite_tol_exits_2_before_any_work(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol: expected a finite float, got '" in err
        assert "wall_time_ms=" not in err


class TestRefusals:
    @pytest.mark.parametrize("argv,message", [
        (["ddvv-verify", "--trials", "0"], "trials must be >= 1"),
        (["bw-verify", "--trials", "0"], "trials must be >= 1"),
        (["ddvv-verify", "--m", "13"], "m = 13 outside the documented cap 1..12"),
        (["curvature"], "curvature requires --input H_FILE or --model NAME"),
        (["models", "veronese"], "models requires --output PREFIX"),
    ], ids=["ddvv-trials-0", "bw-trials-0", "ddvv-m-13", "curvature-no-form", "models-no-output"])
    def test_exits_2_with_the_message(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestHelp:
    def test_models_output_is_a_required_prefix(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["models", "-h"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--output OUTPUT file for the JSON document (default: stdout); for models, "
                "the required prefix of OUTPUT_h.json and OUTPUT_tuple.json") in text


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_back_to_back_calls_share_nothing(self, capsys):
        code, doc = run_json(capsys, ["ddvv-verify", "--seed", "5", "--trials", "5",
                                      "--tol", "1e-6"])
        assert code == 0 and (doc["seed"], doc["tol_mode"]) == (5, "fixed")
        code, doc = run_json(capsys, ["ddvv-verify", "--trials", "5"])
        assert code == 0 and (doc["seed"], doc["tol_mode"]) == (0, "relative(1+|lhs|)")
        assert doc["tol"] == 1e-9 and doc["n"] == 3
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--trials", "5"])
        assert exc.value.code == 2
        code, doc = run_json(capsys, ["bw-verify", "--trials", "3", "--n", "2"])
        assert code == 0 and doc["tol_mode"] == "relative(1+|lhs|)" and doc["seed"] == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["ddvv-verify", "--seed", "9", "--trials", "200", "--n", "4", "--m", "3"],
        ["bw-verify", "--seed", "11", "--trials", "100", "--n", "3"],
        ["bw-search", "--seed", "13", "--trials", "5", "--n", "3", "--max-iters", "60"],
    ])
    def test_byte_identical_json(self, capsys, argv):
        main(argv + ["--format", "json"])
        first = capsys.readouterr().out
        main(argv + ["--format", "json"])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert first.strip()


class TestNoNumpyWrapperLayer:
    """ineqlab calls ndarray methods, not numpy's Python-level wrappers of
    them in fromnumeric.py (np.sum, np.max, np.any, np.swapaxes, np.argmin,
    ...): each wrapper runs the method's reduction behind a Python frame."""

    HORN = "5\n1 -1 1 1 -1\n-1 1 -1 1 1\n1 -1 1 -1 1\n1 1 -1 1 -1\n-1 1 1 -1 1\n"
    ARGVS = [
        ["ddvv-verify", "--seed", "3", "--trials", "40", "--n", "3", "--m", "3"],
        ["ddvv-verify", "--input", "{tmp}/t.json"],
        ["bw-verify", "--seed", "3", "--trials", "40", "--n", "4"],
        ["bw-verify", "--input", "{data}/bw_pair_n5.json"],
        ["bw-search", "--seed", "3", "--trials", "3", "--n", "3", "--max-iters", "5"],
        ["reduce", "--input", "{tmp}/t.json"],
        ["copositive", "--input", "{tmp}/m.txt", "--oracle", "6"],  # a violation, both ways
        ["copositive", "--input", "{tmp}/horn.txt"],  # every submatrix size solved
        ["copositive", "--input", "{tmp}/eye.json", "--oracle", "4"],
        ["curvature", "--input", "{tmp}/h.json"],
        ["curvature", "--model", "clifford", "--r", "1", "--n", "3", "--c", "2"],
        ["models", "veronese", "--output", "{tmp}/v"],
        ["spectrum", "--input", "{data}/spectrum_n4.json"],
        ["spectrum", "--input", "{data}/spectrum_nilpotent.txt"],
    ]

    @staticmethod
    def wrapper_calls(run) -> list:
        """(caller, wrapper) of each call from an ineqlab frame into fromnumeric.py."""
        package = str(Path(linalg.__file__).parent)
        wrappers = np._core.fromnumeric.__file__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == wrappers \
                    and frame.f_back.f_code.co_filename.startswith(package):
                calls.append((frame.f_back.f_code.co_name, frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return calls

    def test_the_guard_sees_a_wrapper_call(self):
        # the parent's norm_sq, compiled as if it were still in linalg.py
        scope = {"np": np}
        exec(compile("def norm_sq(a):\n    return float(np.sum(a * a))\n", linalg.__file__,
                     "exec"), scope)
        assert ("norm_sq", "sum") in self.wrapper_calls(lambda: scope["norm_sq"](np.eye(2)))
        assert self.wrapper_calls(lambda: linalg.norm_sq(np.eye(2))) == []

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_no_command_calls_a_wrapper(self, capsys, tmp_path, fmt):
        write(tmp_path, "t.json", dumps(tuple_json(extremal_case_b(3, 0.5))))
        write(tmp_path, "m.txt", "3\n1 -2 0\n-2 1 0\n0 0 1\n")
        write(tmp_path, "horn.txt", self.HORN)
        write(tmp_path, "eye.json", dumps(matrix_json(np.eye(3))))
        write(tmp_path, "h.json", dumps(sff_json(curvature.veronese_tuple())))
        argvs = [[a.replace("{tmp}", str(tmp_path)).replace("{data}", str(DATA)) for a in argv]
                 + ([] if argv[0] == "models" else ["--format", fmt]) for argv in self.ARGVS]
        codes = []
        calls = self.wrapper_calls(lambda: codes.extend(main(argv) for argv in argvs))
        capsys.readouterr()
        assert codes == [0] * len(argvs) and calls == []
