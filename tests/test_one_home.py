"""Each rule has one home: no module reaches into another's private names,
the symmetry refusal is raised by linalg.check_symmetric alone, a solver's
failure is read by one linalg function, linalg.sum_in_order is the one
left-to-right sum, and SYMMETRY_TOL is read by the symmetry check alone."""

import ast
from pathlib import Path

import ineqlab

SRC = Path(ineqlab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _module(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def _raising_functions(tree: ast.Module, text: str) -> list:
    """Names of the top-level functions and methods that raise an exception naming `text`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            found += [node.name for child in ast.walk(node)
                      if isinstance(child, ast.Raise) and text in ast.unparse(child)]
    return found


def test_no_private_name_crosses_a_module():
    crossing = [(name, node.module, alias.name) for name in MODULES
                for node in ast.walk(_module(name))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("ineqlab"))
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert crossing == []


def test_not_symmetric_raised_only_by_check_symmetric():
    raising = {(name, fn) for name in MODULES
               for fn in _raising_functions(_module(name), "not symmetric")}
    assert raising == {("linalg", "check_symmetric")}


def test_solver_failure_raised_by_one_linalg_function():
    assert _raising_functions(_module("linalg"), "did not converge") == ["_solved"]


def test_cumsum_called_only_by_sum_in_order():
    calling = {(name, node.name) for name in MODULES for node in ast.walk(_module(name))
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and ast.unparse(call.func).endswith("cumsum")
                       for call in ast.walk(node))}
    assert calling == {("linalg", "sum_in_order")}


def test_symmetry_tol_read_only_by_check_symmetric():
    def reads(tree) -> int:
        return sum(isinstance(n, ast.Name) and n.id == "SYMMETRY_TOL" and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute) and n.attr == "SYMMETRY_TOL"
                   for n in ast.walk(tree))

    check = next(node for node in ast.walk(_module("linalg"))
                 if isinstance(node, ast.FunctionDef) and node.name == "check_symmetric")
    assert sum(reads(_module(name)) for name in MODULES) == reads(check) >= 1
