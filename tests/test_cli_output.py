"""How the CLI writes a result: the text rendering, --output, stderr, and
inputs whose arithmetic leaves the float range."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ineqlab
from ineqlab.cli import main
from ineqlab.seeded import RandomStream, sub_seed

DATA = Path(__file__).parent / "data"

# "{data}" in an argv is tests/data; "{tmp}" is the test's temporary directory
TEXT_CASES = {
    "ddvv-campaign": "ddvv-verify --seed 3 --trials 40 --n 3 --m 2",
    "ddvv-input": "ddvv-verify --input {data}/golden_veronese_tuple.json",
    "ddvv-input-fail": "ddvv-verify --input {data}/golden_veronese_tuple.json --tol=-10",
    "bw-campaign": "bw-verify --seed 5 --trials 20 --n 3",
    "bw-input": "bw-verify --input {data}/bw_pair_sharp.json",
    "bw-search": "bw-search --seed 2 --trials 2 --n 2 --max-iters 20",
    "reduce": "reduce --input {data}/golden_veronese_tuple.json",
    "copositive": "copositive --input {tmp}/m.txt",
    "copositive-oracle": "copositive --input {tmp}/m.txt --oracle 6",
    "curvature": "curvature --model clifford --r 1 --n 2",
    "spectrum": "spectrum --input {data}/spectrum_n4.json",
}


def argv_of(case: str, tmp_path) -> list:
    (tmp_path / "m.txt").write_text("3\n1 -2 0\n-2 1 0\n0 0 1\n")
    return [a.replace("{data}", str(DATA)).replace("{tmp}", str(tmp_path))
            for a in TEXT_CASES[case].split()]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_apart(flags: list, argv: list) -> subprocess.CompletedProcess:
    """`python FLAGS -m ineqlab.cli ARGV` in a child process, on this checkout's source."""
    src = str(Path(ineqlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-m", "ineqlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("case", list(TEXT_CASES))
def test_text_rendering_matches_the_document(capsys, tmp_path, case):
    argv = argv_of(case, tmp_path)
    json_code, out, _ = run(capsys, argv + ["--format", "json"])
    doc = json.loads(out)
    assert json_code == (1 if case.endswith("-fail") else 0)
    text_code, text, _ = run(capsys, argv + ["--format", "text"])
    assert text_code == json_code
    lines = text.splitlines()
    for key in doc:
        assert any(line.startswith((key + ": ", key + ".")) for line in lines), key
    assert lines[-1] == ("PASS" if json_code == 0 else "FAIL")


@pytest.mark.parametrize("case", ["ddvv-campaign", "bw-input", "reduce", "copositive-oracle",
                                  "curvature", "spectrum"])
def test_text_output_file_holds_the_json_document(capsys, tmp_path, case):
    argv = argv_of(case, tmp_path)
    _, want, _ = run(capsys, argv + ["--format", "json"])
    path = tmp_path / "out.json"
    _, text, _ = run(capsys, argv + ["--format", "text", "--output", str(path)])
    assert path.read_text() == want
    assert text.splitlines()[-1] in ("PASS", "FAIL")


@pytest.mark.parametrize("case", ["ddvv-campaign", "bw-search", "reduce", "spectrum"])
def test_json_output_file_leaves_stdout_empty(capsys, tmp_path, case):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, argv_of(case, tmp_path) + ["--format", "json", "--output",
                                                         str(path)])
    assert code == 0 and out == ""
    json.loads(path.read_text())


@pytest.mark.parametrize("case", ["ddvv-campaign", "bw-campaign", "bw-search"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_campaign_wall_time_goes_to_stderr_once(capsys, tmp_path, case, fmt):
    _, out, err = run(capsys, argv_of(case, tmp_path) + ["--format", fmt])
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wall_time_ms=")
    assert int(lines[0].split("=")[1]) >= 0
    assert "wall_time" not in out


BAD_FILES = {
    "not-utf-8": b"\xff\xfe\x00",
    "deeply-nested": b'{"n": 1, "entries": ' + b"[" * 10 ** 5,
}


@pytest.mark.parametrize("command", ["spectrum", "copositive", "reduce", "curvature",
                                     "bw-verify", "ddvv-verify"])
@pytest.mark.parametrize("name", list(BAD_FILES))
def test_unreadable_file_is_an_input_error(tmp_path, command, name):
    # under -W error, as a user would see it: exit 2, one message, no traceback
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_FILES[name])
    proc = run_apart(["-W", "error"], [command, "--input", str(path)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["spectrum", "copositive"])
def test_bom_before_a_json_matrix_is_invalid_json(capsys, tmp_path, command):
    # a BOM is no whitespace, yet the sniff looks past it: json refuses the
    # file, as it refuses a tuple, pair or h file behind a BOM
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / "spectrum_n4.json").read_bytes())
    code, out, err = run(capsys, [command, "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                   "line 1 column 1 (char 0)\n")


# one valid file of each JSON format, with the place of an entry marked ENTRY
# and the value of its field 'n' marked COUNT
JSON_FORMATS = {
    "matrix": '{"n": COUNT, "entries": [[ENTRY, 0], [0, 1]]}',
    "tuple": '{"n": COUNT, "m": 1, "matrices": [{"n": 2, "entries": [[ENTRY, 0], [0, 1]]}]}',
    "pair": '{"n": COUNT, "x": {"n": 2, "entries": [[ENTRY, 0], [0, 1]]}, '
            '"y": {"n": 2, "entries": [[0, 1], [1, 0]]}}',
    "h": '{"n": COUNT, "m": 1, "c": 1, "h": [[[ENTRY, 0], [0, 1]]]}',
}
OVER_LONG = "9" * 4301  # one digit past Python's default int_max_str_digits


@pytest.mark.parametrize("where", ["entry", "n"])
@pytest.mark.parametrize("fmt, command", [("matrix", "copositive"), ("matrix", "spectrum"),
                                          ("tuple", "ddvv-verify"), ("tuple", "reduce"),
                                          ("pair", "bw-verify"), ("h", "curvature")])
def test_over_long_integer_literal_is_invalid_json(capsys, tmp_path, fmt, command, where):
    # json.loads refuses the literal with a plain ValueError, not a JSONDecodeError
    out = tmp_path / "out.json"

    def run_on(entry, count):
        path = tmp_path / "in.json"
        path.write_text(JSON_FORMATS[fmt].replace("ENTRY", entry).replace("COUNT", count))
        return run(capsys, [command, "--input", str(path), "--format", "json",
                            "--output", str(out)])

    assert run_on("1", "2")[0] in (0, 1)  # the file is valid without the literal
    out.unlink()
    code, _, err = run_on(OVER_LONG, "2") if where == "entry" else run_on("1", OVER_LONG)
    assert code == 2 and err.startswith("error: invalid JSON: ") and err.count("\n") == 1
    assert not out.exists()


def test_an_umbilic_shift_leaves_the_slack(capsys, tmp_path):
    # h + 1e8 I has h's traceless part, so its exact slack is h's, 0.8686837167813017;
    # sums over h + 1e8 I itself cancel against |H|^2 = 3e16 and read -0.684
    h = RandomStream(sub_seed(91, 1)).symmetric_tuple(4, 3) + 1e8 * np.eye(4)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 4, "m": 3, "c": 0.0, "h": h.tolist()}))
    code, out, _ = run(capsys, ["curvature", "--input", str(path)])
    assert code == 0
    assert "curvature.rho_perp: 0.68423893318015183\n" in out
    assert "curvature.geometric_slack: 0.86868371678130174\n" in out


class TestOverflow:
    """Sides that overflow the float range are an input error (exit 2)."""

    OVERFLOW = "error: input out of the float range\n"

    def write_tuple(self, tmp_path, v):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "matrices": [
            {"n": 2, "entries": [[v, v], [v, -v]]}, {"n": 2, "entries": [[v, 0.0], [0.0, v]]}]}))
        return str(path)

    @pytest.mark.parametrize("command", ["ddvv-verify", "reduce"])
    def test_tuple_entries_of_1e150(self, capsys, tmp_path, command):
        # the square of the norm sum overflows; the test run turns warnings
        # into errors, so an overflow warning would fail this test too
        code = main([command, "--input", self.write_tuple(tmp_path, 1e150)])
        assert (code, capsys.readouterr().err) == (2, self.OVERFLOW)

    @pytest.mark.parametrize("command", ["ddvv-verify", "reduce"])
    def test_tuple_entries_of_1e200(self, capsys, tmp_path, command):
        # numpy's stack * stack overflows first
        code = main([command, "--input", self.write_tuple(tmp_path, 1e200)])
        assert (code, capsys.readouterr().err) == (2, self.OVERFLOW)

    @pytest.mark.parametrize("command, v", [("ddvv-verify", 1e150), ("ddvv-verify", 1e200),
                                            ("reduce", 1e150), ("reduce", 1e200),
                                            ("curvature", 1e300)])
    def test_overflow_rows_under_warnings_as_errors(self, tmp_path, command, v):
        # the scale table's rows as the CLI runs them, under -W error
        if command == "curvature":
            path = tmp_path / "h.json"
            path.write_text(json.dumps({"n": 2, "m": 1, "c": 1.0, "h": [[[v, 0.0], [0.0, 1.0]]]}))
            path = str(path)
        else:
            path = self.write_tuple(tmp_path, v)
        proc = run_apart(["-W", "error"], [command, "--input", path])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", self.OVERFLOW)

    @pytest.mark.parametrize("command, doc", [
        ("ddvv-verify", {"n": 2, "m": 1, "matrices": [{"n": 2, "entries": [[10**400, 0], [0, 1]]}]}),
        ("spectrum", {"n": 2, "entries": [[10**400, 0], [0, 1]]}),
        ("curvature", {"n": 2, "m": 1, "c": 1, "h": [[[10**400, 0], [0, 1]]]}),
    ], ids=["tuple", "matrix", "h"])
    def test_int_past_the_float_range_in_a_file(self, tmp_path, command, doc):
        # JSON reads 10^400 as an exact int, which no float holds
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        proc = run_apart(["-W", "error"], [command, "--input", str(path)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: int too large to convert to float\n"

    @pytest.mark.parametrize("n, slices, err", [
        (2, [[[1e100, 0.0], [0.0, -1e100]], [[0.0, 1e100], [1e100, 0.0]]], OVERFLOW),
        (3, [np.diag([0.6e308 ** 0.5, -0.6e308 ** 0.5, 0.0]).tolist()],
         "error: cannot serialize non-finite number\n"),
    ], ids=["slices-1e100", "shape-slack-inf"])
    def test_curvature_refusal_leaves_no_output_file(self, tmp_path, n, slices, err):
        # refused by the verdict rule before the document is made; the shape
        # slack, which no verdict reads, by the writer before it opens the file
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": n, "m": len(slices), "c": 1.0, "h": slices}))
        out = tmp_path / "F.json"
        proc = run_apart(["-W", "error"], ["curvature", "--input", str(path),
                                           "--output", str(out), "--format", "json"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
        assert not out.exists()

    def test_umbilic_near_the_float_range_gets_its_verdict(self, tmp_path):
        # sqrt(1e307) I at n = 12: |H|^2 = 1e307 is finite and the traceless
        # part is 0, so the verdict is its unit twin's, equality
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 12, "m": 1, "c": 1.0,
                                    "h": [(1e307 ** 0.5 * np.eye(12)).tolist()]}))
        proc = run_apart(["-W", "error"], ["curvature", "--input", str(path), "--format", "json"])
        assert (proc.returncode, proc.stderr) == (0, "")
        curvature = json.loads(proc.stdout)["curvature"]
        assert (curvature["geometric_slack"], curvature["rho_perp"]) == (0, 0)

    def test_curvature_of_1e300_in_a_subprocess(self, tmp_path):
        # the CLI run apart, with the default warning filters a user has
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "c": 1.0, "h": [[[1e300, 0.0], [0.0, 1.0]]]}))
        proc = run_apart([], ["curvature", "--input", str(path)])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_copositive_of_1e_300_in_a_subprocess(self, capsys, tmp_path):
        # under -W error, as the scale table is run: p / 2^e is decided, so
        # 1e-300 P prints the document of P itself
        twin = tmp_path / "twin.txt"
        twin.write_text("2\n1 -3\n-3 1\n")
        assert main(["copositive", "--input", str(twin), "--format", "json"]) == 0
        want = capsys.readouterr().out
        path = tmp_path / "m.txt"
        path.write_text("2\n1e-300 -3e-300\n-3e-300 1e-300\n")
        proc = run_apart(["-W", "error"], ["copositive", "--input", str(path), "--format", "json"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
        assert '"copositive":false' in want

