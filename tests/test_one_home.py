"""Each rule has one home: no module reaches into another's private names,
and the symmetry refusal is raised by linalg.check_symmetric alone."""

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
