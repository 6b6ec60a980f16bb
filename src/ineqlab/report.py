"""Uniform verification output: one named inequality, two sides, a slack."""

from __future__ import annotations

from dataclasses import dataclass, field

# Inequality verdicts use tol = TOL_COEFF * (1 + |lhs|) unless overridden.
TOL_COEFF = 1e-9


def default_tol(lhs: float) -> float:
    return TOL_COEFF * (1.0 + abs(lhs))


@dataclass(frozen=True)
class SlackReport:
    """Outcome of checking one inequality.

    `slack` is oriented so that slack >= 0 means the inequality holds;
    `holds`, set on construction, applies the tolerance.
    """

    inequality: str
    lhs: float
    rhs: float
    slack: float
    tol: float
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "holds", bool(self.slack >= -self.tol))
