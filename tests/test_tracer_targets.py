"""Every function the bench tracer wraps still exists in ineqlab.

bench/tracing.py patches each (module, attribute path) of SPAN_TARGETS and
COUNT_TARGETS with getattr, so a refactor that drops or renames one would
crash the traced benchmark run.  The tracer is read as source, not imported.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _targets() -> list:
    """The (module, attribute path) pairs of SPAN_TARGETS and COUNT_TARGETS."""
    found = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPAN_TARGETS", "COUNT_TARGETS"):
                found[name] = [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1]))
                               for row in node.value.elts]
    assert sorted(found) == ["COUNT_TARGETS", "SPAN_TARGETS"]
    return found["SPAN_TARGETS"] + found["COUNT_TARGETS"]


TARGETS = _targets()


def test_targets_are_read():
    assert ("ineqlab.ddvv", "SymmetricTuple.from_matrices") in TARGETS
    assert ("ineqlab.linalg", "as_matrix") in TARGETS


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        # the tracer reads a method from its class's own __dict__
        cls_name, attr = path.split(".")
        target = vars(getattr(module, cls_name))[attr]
        assert isinstance(target, (classmethod, types.FunctionType))
    else:
        assert callable(getattr(module, path))


def test_from_matrices_is_a_classmethod():
    ddvv = importlib.import_module("ineqlab.ddvv")
    assert isinstance(vars(ddvv.SymmetricTuple)["from_matrices"], classmethod)
