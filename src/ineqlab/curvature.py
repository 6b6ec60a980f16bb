"""Pointwise geometric layer: scalar curvature, normal scalar curvature,
mean curvature, the shape-operator form of the pinching inequality, the
fundamental (Gram) matrix with its pinching quantity, and the exact model
configurations (Clifford-type products of spheres, Veronese surface).

Everything is pointwise algebra on a second fundamental form h^a_ij;
no covariant derivatives enter.  The normal scalar curvature inequality
rho + rho_perp <= |H|^2 + c is reduced, as in Lu's proof, to DDVV for the
traceless shape operators B_r = A_r - (tr A_r / n) I: with ||B||^2 the sum
of ||B_r||^2 and P the square root of DDVV's 2 sum_{r<s} ||[B_r, B_s]||^2,
n(n-1) rho_perp = P and n(n-1) (|H|^2 + c - rho) = ||B||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ddvv import SymmetricTuple, extremal_case_a
from .errors import InputRejected
from .linalg import DIM_CAP, as_vector, commutator_norms_sq, eigh_descending, sum_in_order
from .report import tolerance

__all__ = ["CurvatureReport", "FundamentalReport", "SecondFundamentalForm",
           "clifford_model", "curvature_report", "fundamental_report",
           "traceless", "veronese_immersion", "veronese_tuple"]


def finite_c(c) -> float:
    """Ambient curvature c as a float, refused unless a finite number."""
    try:
        if np.isfinite(c):
            return float(c)
    except (TypeError, ValueError):  # not a number, or more than one
        pass
    raise InputRejected("ambient curvature c must be finite")


@dataclass(frozen=True, eq=False)
class SecondFundamentalForm(SymmetricTuple):
    """The shape operators A_alpha = (h^alpha_ij) as a symmetric tuple, with
    ambient curvature c."""

    c: float

    @classmethod
    def from_array(cls, h, c: float) -> "SecondFundamentalForm":
        """Validate the slices h[alpha] as a symmetric tuple, and c as finite."""
        c = finite_c(c)
        return cls(SymmetricTuple.from_matrices(h).matrices, c)


@dataclass(frozen=True)
class CurvatureReport:
    rho: float
    rho_perp: float
    mean_curv_sq: float
    geometric_slack: float
    shape_slack: float


@dataclass(frozen=True, eq=False)
class FundamentalReport:
    s: np.ndarray
    eigenvalues: np.ndarray
    sigma_sq: float
    pinch: float
    pinch_boundary: int
    within_boundary: bool


def traceless(form: SecondFundamentalForm) -> SecondFundamentalForm:
    """Remove the trace part of every slice."""
    traces = form.matrices.trace(axis1=1, axis2=2) / form.n
    out = form.matrices - traces[:, None, None] * np.eye(form.n)[None, :, :]
    return SecondFundamentalForm(out, form.c)


def curvature_report(form: SecondFundamentalForm) -> CurvatureReport:
    """Scalar and normal scalar curvature plus the two pinching slacks, from
    the traceless part B of h (the module's reduction):

        rho = c + |H|^2 - ||B||^2 / (n(n-1)),   rho_perp = P / (n(n-1)),
        geometric slack = |H|^2 + c - rho - rho_perp = (||B||^2 - P) / (n(n-1)),
        shape slack = n (||B||^2 - P) = n^2 (n-1) times the geometric slack,

    P = sqrt(2 sum_{r<s} ||[B_r, B_s]||^2), bit for bit the square root of
    ddvv_sides' rhs for B.  rho is normalized so that h = 0 recovers c.
    Neither slack cancels against |H|^2, and ||B||^2 is never squared.
    """
    if form.n < 2:
        raise InputRejected("rho is undefined for n < 2")
    n, pairs = form.n, form.n * (form.n - 1.0)
    mean = form.matrices.trace(axis1=1, axis2=2) / n
    h2 = float((mean * mean).sum())
    b = traceless(form).matrices
    b_sq = float((b * b).sum(axis=(-2, -1)).sum(axis=-1))  # summed as ddvv_sides' total
    p = float(np.sqrt(2.0 * sum_in_order(commutator_norms_sq(b))))
    rho = form.c + h2 - b_sq / pairs
    rho_perp = p / pairs
    geometric_slack = (b_sq - p) / pairs
    tolerance(np.array([rho, rho_perp, geometric_slack]))  # refused past the float range
    return CurvatureReport(
        rho=rho,
        rho_perp=rho_perp,
        mean_curv_sq=h2,
        geometric_slack=geometric_slack,
        shape_slack=n * (b_sq - p),
    )


def fundamental_report(form: SecondFundamentalForm) -> FundamentalReport:
    """Gram matrix of the shape operators, its spectrum, the pinching
    quantity ||sigma||^2 + lambda_2 (lambda_2 := 0 when m = 1), and whether
    it stays within the pinching boundary n, up to tolerance(pinch)."""
    s = form.gram()
    values = eigh_descending(s)[0]
    sigma_sq = float(s.trace())
    pinch = sigma_sq + (float(values[1]) if form.m >= 2 else 0.0)
    return FundamentalReport(
        s=s,
        eigenvalues=values,
        sigma_sq=sigma_sq,
        pinch=pinch,
        pinch_boundary=form.n,
        # a bound, not a slack: holds(n - pinch, pinch) would flip it at 4.000000005 (n = 4)
        within_boundary=bool(pinch <= form.n + tolerance(pinch)),
    )


def clifford_model(r: int, n: int) -> SecondFundamentalForm:
    """Second fundamental form of the minimal product of spheres in the
    unit sphere: one normal direction, diagonal with r entries
    sqrt((n-r)/r) and n-r entries -sqrt(r/(n-r)); ||sigma||^2 = n."""
    if n > DIM_CAP:
        raise InputRejected(f"n = {n} is over the cap n <= {DIM_CAP}")
    if not 1 <= r <= n - 1:
        raise InputRejected(f"need 1 <= r <= n-1, got r={r}, n={n}")
    lam1 = np.sqrt((n - r) / float(r))
    lam2 = -np.sqrt(r / float(n - r))
    diag = np.concatenate([np.full(r, lam1), np.full(n - r, lam2)])
    return SecondFundamentalForm.from_array(np.diag(diag)[None, :, :], c=1.0)


def veronese_tuple() -> SecondFundamentalForm:
    """Pointwise shape operators of the Veronese surface in the 4-sphere:
    the extremal 2x2 pair scaled to ||sigma||^2 = 4/3; sits exactly on the
    pinching boundary with DDVV equality.  Validated as the pair, not again."""
    return SecondFundamentalForm(np.sqrt(2 / 3) * extremal_case_a(2, 1.0).matrices, 1.0)


def veronese_immersion(p) -> np.ndarray:
    """Quadratic isometric immersion of the radius-sqrt(3) 2-sphere into S^4.

    Maps (x, y, z) with x^2 + y^2 + z^2 = 3 to the unit vector
    (yz/sqrt3, zx/sqrt3, xy/sqrt3, (x^2 - y^2)/(2 sqrt3), (x^2 + y^2 - 2z^2)/6).
    Antipodal points map to the same image.
    """
    pv = as_vector(p, "p", lambda k: k == 3, "a 3-vector", nonnegative=False)
    radius_sq = float((pv * pv).sum())
    if abs(radius_sq - 3.0) > 1e-10:
        raise InputRejected(f"|p|^2 = {radius_sq:.12f}, point must lie on the sphere of radius sqrt(3)")
    x, y, z = pv
    s3 = np.sqrt(3.0)
    return np.array(
        [
            y * z / s3,
            z * x / s3,
            x * y / s3,
            (x * x - y * y) / (2.0 * s3),
            (x * x + y * y - 2.0 * z * z) / 6.0,
        ]
    )
