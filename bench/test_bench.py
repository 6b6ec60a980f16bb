"""Self-tests of the benchmark: input determinism, span arithmetic, the
planted copositivity counterexamples and the verdict gate.

    python3 -m pytest -q bench
"""

import filecmp
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import import_cli  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import GENERATORS, WORKLOADS, check, generate  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")


def _snapshot(workdir):
    return sorted(os.listdir(workdir))


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ops_a = generate(workload, 11, str(a))
    ops_b = generate(workload, 11, str(b))
    ops_c = generate(workload, 12, str(c))
    assert json.dumps(ops_a) == json.dumps(ops_b)
    names = _snapshot(a)
    assert names == _snapshot(b)
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(a, c, names, shallow=False)
    assert differ or json.dumps(ops_a) != json.dumps(ops_c), "a different seed must change inputs"


def test_every_workload_records_why_and_predictions():
    assert set(WORKLOADS) == set(GENERATORS)
    for spec in WORKLOADS.values():
        assert spec["why"] and spec["predictions"]


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 9]; the first child has a grandchild [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 9.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    assert self_times(spans) == [10.0 - 6.0, 3.0 - 1.0, 3.0, 1.0, 1.0]


def test_self_time_clips_children_to_parent():
    spans = [["p", 0.0, 2.0, -1, 0], ["c", 1.0, 5.0, 0, 0]]
    assert self_times(spans) == [1.0, 4.0]


def _planted(workdir, ops):
    for op in ops:
        planted = op["check"].get("planted")
        if planted:
            cli_path = op["argv"][op["argv"].index("--input") + 1]
            with open(os.path.join(workdir, cli_path), encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            p = np.array([[float(v) for v in line.split()] for line in lines[1:] if line])
            yield p, planted


def test_planted_inputs_are_not_copositive(tmp_path):
    ops = generate("copositive_check", 5, str(tmp_path))
    found = list(_planted(str(tmp_path), ops))
    assert len(found) == 3
    for p, (i, j) in found:
        x = np.zeros(p.shape[0])
        x[i], x[j] = np.sqrt(p[j, j]), np.sqrt(p[i, i])
        assert float(x @ p @ x) < 0.0


def test_program_agrees_with_construction(tmp_path):
    import_cli(SRC)
    from ineqlab.copositive import copositive_property_k
    from ineqlab.serialize import read_matrix_file

    ops = generate("copositive_check", 5, str(tmp_path))
    for op in ops:
        expect = op["check"]["expect"]
        if expect is not None:
            path = str(tmp_path / op["argv"][op["argv"].index("--input") + 1])
            assert copositive_property_k(read_matrix_file(path)).copositive is expect


def test_gate_flags_contradicting_outputs():
    op = {"argv": ["copositive"], "outputs": [],
          "check": {"name": "copositive", "n": 8, "expect": False, "oracle": False}}
    doc = {"command": "copositive", "n": 8, "property_k": {"copositive": True},
           "oracle": None, "agree": None}
    assert "construction" in check(op, 0, json.dumps(doc), {})
    doc["property_k"]["copositive"] = False
    assert check(op, 0, json.dumps(doc), {}) is None
    assert "exit code" in check(op, 1, json.dumps(doc), {})
    assert "malformed" in check(op, 0, json.dumps(doc)[:-1], {})


def test_tracer_restores_the_program(tmp_path):
    cli = import_cli(SRC)
    import ineqlab.copositive as copositive
    import ineqlab.linalg as linalg

    before = (cli.main, copositive.sym_eigen, linalg.as_matrix)
    tracer = Tracer()
    tracer.install()
    try:
        assert copositive.sym_eigen is not before[1]
        tracer.op = 0
        assert cli.main(["spectrum", "--input", _write_matrix(tmp_path), "--format",
                         "json"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, copositive.sym_eigen, linalg.as_matrix) == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "serialize.read", "bw.t_spectrum", "bw.t_operator"} <= names
    metrics = layer_metrics(tracer, ops=1, trials=1, overhead=1.0)
    # spectrum solves the 9 x 9 T operator twice: t_spectrum, then bw_spectral_slack
    assert metrics["bw.eig_flops"][1] == pytest.approx(2 * 4.0 / 3.0 * 9.0 ** 3)
    assert metrics["linalg.as_matrix.calls"][1] >= 1


def _write_matrix(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("3\n1 2 0\n0 1 0\n1 0 -1\n", encoding="utf-8")
    return str(path)
