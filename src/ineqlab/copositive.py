"""Copositivity (pseudo-positivity) decision procedures.

A symmetric matrix P is copositive when x^T P x >= 0 for every
entrywise-nonnegative x.  Two independent routes are provided: the
principal-submatrix eigenvector criterion (every eigenvector of a
negative eigenvalue of every principal submatrix must have strictly
mixed signs) and a simplicial partition of the unit simplex used as the
cross-validation oracle.  Copositivity is scale invariant, so both decide
P / 2^e (linalg.normalized), e the exponent of P's largest |entry|, with
tolerances relative to it: a verdict and its certificate do not depend on
P's scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputRejected
from .linalg import _symmetric_normalized, eigh_descending

__all__ = ["CopositivityVerdict", "copositive_oracle", "copositive_property_k"]

PROPERTY_K_DIM_CAP = 16
# eigenvector entries this close to zero carry no sign information
SIGN_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class CopositivityVerdict:
    copositive: bool
    certificate: Optional[np.ndarray] = None
    failing_submatrix: Optional[tuple] = None


def _subsets(m: int, size: int) -> np.ndarray:
    """All size-subsets of range(m), one per row, in itertools.combinations order."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(m), size))
    count = math.comb(m, size)
    return np.fromiter(combos, dtype=np.intp, count=count * size).reshape(count, size)


def _violation(pm: np.ndarray, subsets: np.ndarray, values: np.ndarray, vectors: np.ndarray,
               neg_eps: float) -> Optional[CopositivityVerdict]:
    """The verdict of the first violation among the eigenpairs (descending)
    of the principal submatrices on the rows of `subsets` (one size,
    itertools.combinations order), or None when there is none."""
    mixed = np.any(vectors > SIGN_ZERO_TOL, axis=1) & np.any(vectors < -SIGN_ZERO_TOL, axis=1)
    bad = np.flatnonzero((values < -neg_eps) & ~mixed)
    if not bad.size:
        return None
    # first violation in scan order: subsets lexicographic, eigenvalues descending
    row, k = divmod(int(bad[0]), subsets.shape[1])
    certificate = np.zeros(pm.shape[0])
    certificate[subsets[row]] = np.abs(vectors[row, :, k])
    verified = float(certificate @ pm @ certificate) < 0.0
    return CopositivityVerdict(False, certificate if verified else None,
                               tuple(subsets[row].tolist()))


def _solve(pm: np.ndarray, subsets: np.ndarray, neg_eps: float) -> Optional[CopositivityVerdict]:
    """Eigendecompose the principal submatrices on the rows of `subsets` as
    one stack and return the verdict of its first violation, or None.  The
    stack's eigenpairs are freed on return."""
    values, vectors = eigh_descending(pm[subsets[:, :, None], subsets[:, None, :]])
    return _violation(pm, subsets, values, vectors, neg_eps)


# the shift of the PSD-plus-nonnegative certificate, as a fraction of ||P||
SPN_SHIFT = 0.1


def _psd_plus_nonnegative(pm: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                          shift: float, margin: float) -> bool:
    """Whether sym(p) = X + N is found with N >= 0 entrywise and X's
    computed smallest eigenvalue >= -margin, from the eigenpairs of sym(p).

    One projection: X = min(Y, sym(p)) entrywise, where Y is sym(p) with
    its eigenvalues raised to at least `shift`.  N = sym(p) - X is exact and
    nonnegative, so x^T p x >= x^T X x for every x >= 0.
    """
    x = np.minimum((vectors * np.maximum(values, shift)) @ vectors.T, 0.5 * (pm + pm.T))
    return bool(eigh_descending(x)[0][-1] >= -margin)


def copositive_property_k(p, *, normal=None) -> CopositivityVerdict:
    """Decide copositivity via the principal-submatrix eigenvector test.

    p is decided as P = p / 2^e, whose max |entry| is in [0.5, 1).  Each
    principal submatrix of P is eigendecomposed; an eigenvalue below
    neg_eps = 1e-10 * (1 + ||P||) whose eigenvector is one-signed (all
    nonnegative or all nonpositive up to the zero tolerance) disproves
    copositivity.  The verdict is that of the first such eigenvector in
    scan order (subsets by size, then lexicographic; eigenvalues
    descending), and the certificate its entrywise absolute value, kept
    only when it verifiably gives x^T P x < 0.

    Two facts let p decide at once.  (1) Let x^T S x >= -mu ||x||^2 for
    every x >= 0, and let (lam, v) be a computed unit eigenpair of S with
    v >= -w entrywise, w = SIGN_ZERO_TOL.  With v_- the magnitudes of the
    negative entries, |v| = v + 2 v_- and, up to the eigensolver's residual
    (about s * eps * ||S||_2, under 4e-15 ||P|| for s <= 16),
    |v|^T S |v| = lam (1 - 4 ||v_-||^2) + 4 v_-^T S v_-, so
    lam >= -mu - 4 s w^2 ||S|| - O(s eps ||S||).  For mu near neg_eps/2
    that is far above -neg_eps: such an S holds no violation.  (2) Every
    principal submatrix S of P has such a mu when P's computed smallest
    eigenvalue is >= -neg_eps/2 (Cauchy interlacing), or when sym(P) =
    X + N is found with N >= 0 entrywise and X of that kind
    (_psd_plus_nonnegative).

    So P itself is solved first, and the call returns copositive at once
    in either case.  Otherwise the sizes 1..m-1 are solved bottom-up, one
    stack per size, and the first violation found is returned; P's own
    eigenpairs decide last.  A matrix's eigenpairs do not depend on the
    stack it is solved in, so the verdict, failing submatrix and
    certificate are those of the scan over every subset, bit for bit.

    normal, if given, is the (P, e, ||P||) of a p that
    linalg._symmetric_normalized has validated, and p is not checked again.
    """
    pm, _, norm = _symmetric_normalized(p, "p")[1] if normal is None else normal
    m = pm.shape[0]
    if m > PROPERTY_K_DIM_CAP:
        raise InputRejected(
            f"dimension {m} exceeds the principal-submatrix cap {PROPERTY_K_DIM_CAP}; "
            "use the simplex oracle for larger matrices"
        )
    neg_eps = 1e-10 * (1.0 + norm)
    margin = 0.5 * neg_eps
    values, vectors = eigh_descending(pm[None])
    if values[0, -1] >= -margin:
        return CopositivityVerdict(True)
    if _psd_plus_nonnegative(pm, values[0], vectors[0], SPN_SHIFT * norm, margin):
        return CopositivityVerdict(True)
    for size in range(1, m):
        verdict = _solve(pm, _subsets(m, size), neg_eps)
        if verdict is not None:
            return verdict
    verdict = _violation(pm, np.arange(m)[None], values, vectors, neg_eps)
    return verdict or CopositivityVerdict(True)


# simplices examined x m^2 before the oracle refuses (32 MiB of float64)
ORACLE_BUDGET = 1 << 22


def copositive_oracle(p, resolution: int, *, normal=None) -> CopositivityVerdict:
    """Independent verdict by depth-first simplicial partition of the unit
    simplex (Bundfuss and Duer, LAA 428, 2008).

    p is decided as P = p / 2^e, whose max |entry| is in [0.5, 1).  A
    simplex with vertex matrix V (one vertex per column) maps y on the
    unit simplex to x = V y, with x^T P x = y^T Q y for Q = V^T P V.  With
    eps = 1e-9 * (1 + ||P||), Q >= -eps entrywise leaves no violation on
    it; the most negative diagonal q_kk, if below -eps, makes vertex k the
    certificate; else the first edge with q_ij < -sqrt(q_ii) sqrt(q_jj) - eps
    gives it, at the minimum of the quadratic on that edge.  Otherwise the
    longest edge is bisected, unless it is at most sqrt(2) / resolution,
    the resolution-R lattice spacing: such a simplex counts as holding no
    violation at this resolution.  More than ORACLE_BUDGET simplices
    examined x m^2 is refused.

    normal, if given, is the (P, e, ||P||) of a p that
    linalg._symmetric_normalized has validated, and p is not checked again.
    """
    pm, _, norm = _symmetric_normalized(p, "p")[1] if normal is None else normal
    if resolution < 2:
        raise InputRejected("resolution must be >= 2")
    m = pm.shape[0]
    eps = 1e-9 * (1.0 + norm)
    finest = 2.0 / resolution**2  # the squared lattice spacing
    limit = ORACLE_BUDGET // (m * m)  # simplices examined before the oracle refuses
    stack, examined = [], 0
    while examined == 0 or stack:
        if examined == limit:
            raise InputRejected(f"oracle at m = {m}, resolution {resolution} needs more than "
                                f"{limit} simplices x m^2, over the budget of {ORACLE_BUDGET}; "
                                "lower the resolution")
        v = stack.pop() if examined else np.eye(m)  # the unit simplex first
        examined += 1
        q = v.T @ pm @ v
        if np.all(q >= -eps):
            continue
        diag = np.diag(q)
        k = int(np.argmin(diag))
        if diag[k] < -eps:
            return CopositivityVerdict(False, certificate=v[:, k].copy())
        root = np.sqrt(np.maximum(diag, 0.0))
        bad = np.flatnonzero(q < -np.outer(root, root) - eps)
        if bad.size:
            # t v_i + (1 - t) v_j minimizes t^2 a + 2 t (1 - t) b + (1 - t)^2 c
            i, j = divmod(int(bad[0]), m)
            a, b, c = q[i, i], q[i, j], q[j, j]
            t = (c - b) / ((a - b) + (c - b))
            return CopositivityVerdict(False, certificate=t * v[:, i] + (1.0 - t) * v[:, j])
        edges = v[:, :, None] - v[:, None, :]
        lengths = np.einsum("kij,kij->ij", edges, edges)
        i, j = divmod(int(np.argmax(lengths)), m)
        if lengths[i, j] <= finest:
            continue
        mid = 0.5 * (v[:, i] + v[:, j])
        for k in (j, i):
            child = v.copy()
            child[:, k] = mid
            stack.append(child)
    return CopositivityVerdict(True)
