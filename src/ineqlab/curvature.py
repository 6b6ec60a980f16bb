"""Pointwise geometric layer: scalar curvature, normal scalar curvature,
mean curvature, the shape-operator form of the pinching inequality, the
fundamental (Gram) matrix with its pinching quantity, and the exact model
configurations (Clifford-type products of spheres, Veronese surface).

Everything is pointwise algebra on a second fundamental form h^a_ij;
no covariant derivatives enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ddvv import SymmetricTuple, extremal_case_a
from .errors import InputRejected
from .linalg import (DIM_CAP, as_vector, commutator_norms_sq, eigh_descending, pair_indices,
                     sum_in_order)
from .report import tolerance

__all__ = ["CurvatureReport", "FundamentalReport", "SecondFundamentalForm",
           "clifford_model", "curvature_report", "fundamental_report",
           "mean_curvature_sq", "traceless", "veronese_immersion", "veronese_tuple"]


def finite_c(c) -> float:
    """Ambient curvature c as a float, refused unless a finite number."""
    try:
        if np.isfinite(c):
            return float(c)
    except (TypeError, ValueError):  # not a number, or more than one
        pass
    raise InputRejected("ambient curvature c must be finite")


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Array h[alpha, i, j], symmetric in (i, j), with ambient curvature c."""

    n: int
    m: int
    c: float
    h: np.ndarray

    @classmethod
    def from_array(cls, h, c: float) -> "SecondFundamentalForm":
        """Validate the slices h[alpha] as a symmetric tuple, and c as finite."""
        c = finite_c(c)
        t = SymmetricTuple.from_matrices(h)
        return cls(n=t.n, m=t.m, c=c, h=t.matrices)

    def to_tuple(self) -> SymmetricTuple:
        """The shape operators as a symmetric tuple on a read-only view of h."""
        h = self.h.view()
        h.flags.writeable = False
        return SymmetricTuple(n=self.n, m=self.m, matrices=h)


@dataclass(frozen=True)
class CurvatureReport:
    rho: float
    rho_perp: float
    mean_curv_sq: float
    geometric_slack: float
    shape_slack: float


@dataclass(frozen=True)
class FundamentalReport:
    s: np.ndarray
    eigenvalues: np.ndarray
    sigma_sq: float
    pinch: float
    pinch_boundary: int
    within_boundary: bool


def mean_curvature_sq(form: SecondFundamentalForm) -> float:
    """|H|^2 = sum_a (trace(h^a) / n)^2."""
    traces = form.h.trace(axis1=1, axis2=2) / form.n
    return float((traces * traces).sum())


def traceless(form: SecondFundamentalForm) -> SecondFundamentalForm:
    """Remove the trace part of every slice."""
    traces = form.h.trace(axis1=1, axis2=2) / form.n
    out = form.h - traces[:, None, None] * np.eye(form.n)[None, :, :]
    return SecondFundamentalForm(n=form.n, m=form.m, c=form.c, h=out)


def curvature_report(form: SecondFundamentalForm) -> CurvatureReport:
    """Scalar and normal scalar curvature plus the two pinching slacks.

    rho is normalized so that h = 0 recovers the ambient value c.  The
    geometric slack is |H|^2 + c - rho - rho_perp, c cancelled; the shape slack is the
    equivalent inequality on the traceless part,
    sum_r sum_{i<j} (h^r_ii - h^r_jj)^2 + 2n sum_r sum_{i<j} (h^r_ij)^2
      - 2n sqrt(normal curvature sum),
    which equals n^2 (n-1) times the geometric slack.
    """
    if form.n < 2:
        raise InputRejected("rho is undefined for n < 2")
    n, h = form.n, form.h
    coeff = 2.0 / (n * (n - 1.0))
    iu, ju = pair_indices(n)
    mean = h.trace(axis1=1, axis2=2) / n

    # Each slice's sums are np.sum over a row of a C-contiguous array, which adds
    # them as over the slice alone; sum_in_order adds them slice by slice, for
    # gauss a slice's 1/2 (total^2 - sum diag^2) and then its -off.  Removing the
    # trace part keeps a slice's off-diagonal entries and shifts its diagonal to
    # diag - mean, so the shape slack's sums are read off h itself.
    diag = h.diagonal(axis1=1, axis2=2).copy()
    off = (np.ascontiguousarray(h[:, iu, ju]) ** 2).sum(axis=1)
    halves = 0.5 * (diag.sum(axis=1) ** 2 - (diag ** 2).sum(axis=1))
    gauss = float(sum_in_order(np.column_stack([halves, -off]).ravel()))
    gaps = diag - mean[:, None]
    gap_sq = (gaps.take(iu, axis=1) - gaps.take(ju, axis=1)) ** 2
    diag_part = float(sum_in_order(gap_sq.sum(axis=1)))
    off_part = float(sum_in_order(off))
    rho = form.c + coeff * gauss

    # sum_{r<s} sum_{i<j} ([A_r, A_s]_ij)^2: commutators of symmetric slices are
    # antisymmetric, so this is half of sum_{r<s} ||[A_r, A_s]||^2.  Removing the
    # trace part changes no commutator, so the traceless form has the same sum.
    perp_sum = 0.5 * float(commutator_norms_sq(h).sum())
    rho_perp = coeff * float(np.sqrt(perp_sum))

    h2 = float((mean * mean).sum())
    geometric_slack = h2 - coeff * gauss - rho_perp
    shape_slack = diag_part + 2.0 * n * off_part - 2.0 * n * float(np.sqrt(perp_sum))
    return CurvatureReport(
        rho=rho,
        rho_perp=rho_perp,
        mean_curv_sq=h2,
        geometric_slack=geometric_slack,
        shape_slack=shape_slack,
    )


def fundamental_report(form: SecondFundamentalForm) -> FundamentalReport:
    """Gram matrix of the shape operators, its spectrum, the pinching
    quantity ||sigma||^2 + lambda_2 (lambda_2 := 0 when m = 1), and whether
    it stays within the pinching boundary n, up to tolerance(pinch)."""
    s = form.to_tuple().gram()
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
    pinching boundary with DDVV equality."""
    h = np.sqrt(2 / 3) * extremal_case_a(2, 1.0).matrices  # validated as the pair
    h.flags.writeable = False
    return SecondFundamentalForm(n=2, m=2, c=1.0, h=h)


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
