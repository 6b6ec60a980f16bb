"""Uniform verification output, and the lab's one verdict rule: a check holds
when its slack is >= -tol, tol a fixed override or else TOL_COEFF * (1 + |scale|).
It is also the float-range rule: a verdict on an inf or NaN scale or slack is refused."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputRejected

__all__ = ["SlackReport"]

TOL_COEFF = 1e-9


def tolerance(scale, fixed: Optional[float] = None):
    """`fixed` if given, else TOL_COEFF (1 + |scale|) elementwise; refuses an inf or NaN scale."""
    return _tolerance(scale, fixed, scale)


def holds(slack, scale, fixed: Optional[float] = None):
    """Whether slack >= -tolerance(scale, fixed) elementwise: every verdict of the lab.
    Refused unless slack and scale, of one shape, are finite; one pass checks both."""
    return slack >= -_tolerance(scale, fixed, (slack, scale))


def _tolerance(scale, fixed, in_range):
    if not np.isfinite(in_range).all():
        raise InputRejected("input out of the float range")
    return fixed if fixed is not None else TOL_COEFF * (1.0 + abs(scale))


@dataclass(frozen=True)
class SlackReport:
    """Outcome of checking one inequality.

    `slack` is oriented so that slack >= 0 means the inequality holds; `tol`
    defaults to tolerance(lhs), and `holds`, set on construction, applies it.
    """

    inequality: str
    lhs: float
    rhs: float
    slack: float
    tol: Optional[float] = None
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tol", tolerance(self.lhs, self.tol))
        object.__setattr__(self, "holds", bool(holds(self.slack, self.lhs, self.tol)))
