"""Each rule has one home: no module reaches into another's private names,
the symmetry refusal is raised by linalg.check_symmetric alone, a solver's
failure is read by one linalg function, linalg.sum_in_order is the one
left-to-right sum, SYMMETRY_TOL is read by the symmetry check alone,
TOL_COEFF by report and the document header alone, and the Bottcher-Wenzel
constant is written once, as bw.BW_CONSTANT."""

import ast
from pathlib import Path

import ineqlab

SRC = Path(ineqlab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _module(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _reads(tree: ast.AST, name: str) -> int:
    """How often `tree` loads `name`, as a bare name or as an attribute."""
    return sum(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               or isinstance(n, ast.Attribute) and n.attr == name
               for n in ast.walk(tree))


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
    check = _function(_module("linalg"), "check_symmetric")
    assert sum(_reads(_module(name), "SYMMETRY_TOL") for name in MODULES) == _reads(
        check, "SYMMETRY_TOL") >= 1


def test_tol_coeff_read_only_by_report_and_the_header():
    reads = {name: _reads(_module(name), "TOL_COEFF") for name in MODULES}
    assert {name for name, count in reads.items() if count} == {"report", "cli"}
    assert reads["cli"] == _reads(_function(_module("cli"), "_header"), "TOL_COEFF")


def test_bw_constant_is_the_one_float_two():
    def twos(tree: ast.Module) -> list:
        return [n for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and type(n.value) is float and n.value == 2.0]

    assert twos(_module("campaigns")) == twos(_module("cli")) == []
    bw = _module("bw")
    home = next(node.value for node in bw.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["BW_CONSTANT"])
    assert twos(bw) == [home]
