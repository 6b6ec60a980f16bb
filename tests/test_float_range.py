"""The float-range rule: kernels let IEEE inf and NaN through, and the verdict
rule (report.tolerance, report.holds, SlackReport) refuses them with
InputRejected, as do the linalg solvers when LAPACK fails on them.  A
verdict taken against an infinite tolerance, or on an inf or NaN side, says
nothing."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import ineqlab
from ineqlab.bw import bw_case_matrix_bound, bw_slack
from ineqlab.curvature import SecondFundamentalForm, fundamental_report
from ineqlab.ddvv import SymmetricTuple, ddvv_slack, p_matrix_bound
from ineqlab.errors import InputRejected, NumericalFailure
from ineqlab.linalg import eigh_descending, eigvalsh
from ineqlab.report import SlackReport, holds, tolerance
from ineqlab.seeded import RandomStream, sub_seed

from conftest import eij

OUT_OF_RANGE = "^input out of the float range$"
SRC = Path(ineqlab.__file__).parent


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestVerdictRule:
    def test_ddvv_sides_past_dbl_max(self):
        # (sum ||A_r||^2)^2 overflows: lhs inf, tol inf once held
        v = 1e150
        t = SymmetricTuple.from_matrices([[[v, v], [v, -v]], [[v, 0.0], [0.0, v]]])
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            ddvv_slack(t)

    @pytest.mark.parametrize("x, y", [
        ([[1e200, 1.0], [0.0, 0.0]], 1e-100 * eij(2, 0, 1)),  # rhs inf once held
        (np.diag([1e200, 0.0]), 1e-200 * eij(2, 0, 1)),  # rhs NaN (inf * 0)
    ], ids=["rhs-inf", "rhs-nan"])
    def test_bw_rhs_out_of_range(self, x, y):
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            bw_slack(x, y)

    def test_arrowhead_eigenvalue_past_dbl_max(self):
        # P is finite, its top eigenvalue 1.8e308 is not: slack NaN once
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            p_matrix_bound([0.9e308])

    @pytest.mark.parametrize("scale, fixed", [
        (np.array([1.0, np.inf]), None),
        (np.inf, 1e-9),  # a fixed override does not make an infinite scale finite
        (np.nan, None),
    ], ids=["array-inf", "fixed-inf", "nan"])
    def test_tolerance_refuses(self, scale, fixed):
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            tolerance(scale, fixed)

    @pytest.mark.parametrize("slack, scale", [
        (np.array([0.0, np.nan]), np.zeros(2)),
        (np.array([0.0, -np.inf]), np.zeros(2)),
        (np.zeros(2), np.array([1.0, np.inf])),  # under a fixed override too
    ], ids=["slack-nan", "slack-inf", "scale-inf"])
    def test_holds_refuses(self, slack, scale):
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            holds(slack, scale, 1e-9)

    @pytest.mark.parametrize("slack", [np.inf, -np.inf, np.nan])
    def test_slack_report_refuses_a_non_finite_slack(self, slack):
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            SlackReport("x", lhs=1.0, rhs=np.inf, slack=slack)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowingDerivedMatrices:
    """Matrices derived from finite input that overflow are an input error,
    whether the solver fails on them or returns inf or NaN; never a
    NumericalFailure and never a report."""

    def test_case_matrices(self):
        for n in range(2, 13):
            for k in range(20):
                stream = RandomStream(sub_seed(2101 + n, k))
                b, c = (1e160 * stream.gaussian_matrix(n) for _ in range(2))
                b[0, 0] = 0.0
                with pytest.raises(InputRejected, match=OUT_OF_RANGE):
                    bw_case_matrix_bound(b, c)

    def test_gram_matrices(self):
        for m in range(1, 13):
            for k in range(10):
                stream = RandomStream(sub_seed(2201 + m, k))
                h = 1e160 * stream.symmetric_tuple(2 + (m + k) % 11, m)
                with pytest.raises(InputRejected, match=OUT_OF_RANGE):
                    fundamental_report(SecondFundamentalForm.from_array(h, c=1.0))

    def test_arrowheads(self):
        # sum(s) = 0.99 DBL_MAX: P is finite, but sum(s) + max(s) is not
        for size in range(1, 13):
            for k in range(10):
                s = np.abs(RandomStream(sub_seed(2301 + size, k)).normals(size))
                s = s / np.sum(s) * (0.99 * sys.float_info.max)
                with pytest.raises(InputRejected, match=OUT_OF_RANGE):
                    p_matrix_bound(s)


def _fail(a):
    raise np.linalg.LinAlgError("stub")


@pytest.mark.parametrize("kernel, solver", [(eigh_descending, "eigh"), (eigvalsh, "eigvalsh")],
                         ids=["eigh_descending", "eigvalsh"])
class TestSolverFailure:
    """A LAPACK failure is the float-range refusal on an inf or NaN input, and
    a NumericalFailure on a finite one, for every unchecked linalg solver."""

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_input_is_refused(self, monkeypatch, kernel, solver, entry):
        monkeypatch.setattr(np.linalg, solver, _fail)
        with pytest.raises(InputRejected, match=OUT_OF_RANGE):
            kernel(np.array([[1.0, entry], [entry, 1.0]]))

    def test_finite_input_is_a_numerical_failure(self, monkeypatch, kernel, solver):
        monkeypatch.setattr(np.linalg, solver, _fail)
        with pytest.raises(NumericalFailure, match="^eigensolver did not converge: stub$"):
            kernel(np.eye(2))


def _module(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def _functions_calling(tree: ast.Module, dotted: str) -> list:
    """Qualified names of the functions whose body calls `dotted` (e.g. np.errstate)."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(c, ast.Call) and ast.unparse(c.func) == dotted
                        for c in ast.walk(child)):
                    found.append(name)
                visit(child, name + ".")

    visit(tree, "")
    return found


class TestOneHome:
    """The float-range rule lives in report.py; no module keeps its own."""

    MODULES = sorted(p.stem for p in SRC.glob("*.py"))

    def test_no_traps_or_private_checks(self):
        for name in self.MODULES:
            text = (SRC / f"{name}.py").read_text()
            for banned in ("in_float_range", "FloatingPointError", 'over="raise"'):
                assert banned not in text, (name, banned)

    def test_errstate_only_where_overflow_is_intended(self):
        # cli.main lets inf and NaN reach the verdict rule; the others form
        # values whose overflow is read as inf.  SplitMix64's wrapping needs
        # none: uint64 array arithmetic never signals overflow (test_seeded.py)
        found = {f"{name}.{fn}" for name in self.MODULES
                 for fn in _functions_calling(_module(name), "np.errstate")}
        assert found == {"cli.main", "linalg.asymmetry", "bw._unit"}

    def test_refusal_raised_only_from_the_rule(self):
        # report.py raises the refusal; linalg's solver-failure rule is the
        # one kernel that applies it for its own sake, to a solver's failure
        raising = {name for name in self.MODULES for node in ast.walk(_module(name))
                   if isinstance(node, ast.Raise)
                   and "out of the float range" in ast.unparse(node)}
        assert raising == {"report"}
        assert _functions_calling(_module("linalg"), "tolerance") == ["_solved"]
