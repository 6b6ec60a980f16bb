"""Copositivity (pseudo-positivity) decision procedures.

A symmetric matrix P is copositive when x^T P x >= 0 for every
entrywise-nonnegative x.  Two independent routes are provided: the
principal-submatrix eigenvector criterion (every eigenvector of a
negative eigenvalue of every principal submatrix must have strictly
mixed signs) and a brute-force simplex-lattice minimizer used as the
cross-validation oracle.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputRejected
from .linalg import as_symmetric, eigh_descending, prescaled_norm

PROPERTY_K_DIM_CAP = 16
# ||P||_F above DBL_MAX/2 could overflow the tolerances and the oracle's
# gradient 2 P x; copositivity is scale invariant, so such a P is refused
NORM_CAP = sys.float_info.max / 2
# eigenvector entries this close to zero carry no sign information
SIGN_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class CopositivityVerdict:
    copositive: bool
    certificate: Optional[np.ndarray] = None
    failing_submatrix: Optional[tuple] = None


def _as_bounded_symmetric(p) -> tuple:
    """p as a symmetric matrix, and its Frobenius norm, at most NORM_CAP."""
    pm = as_symmetric(p, "p")
    norm = float(prescaled_norm(pm))
    if norm > NORM_CAP:
        raise InputRejected(f"p: ||p||_F = {norm:.17g} is over DBL_MAX/2 = {NORM_CAP:.17g}; "
                            "scale p down (copositivity is scale invariant)")
    return pm, norm


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


# shifted projections tried by the PSD-plus-nonnegative certificate, and
# the shift as a fraction of ||p||
SPN_STEPS = 2
SPN_SHIFT = 0.1


def _psd_plus_nonnegative(pm: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                          shift: float, margin: float) -> bool:
    """Whether sym(p) = X + N is found with N >= 0 entrywise and X's
    computed smallest eigenvalue >= -margin, from the eigenpairs of sym(p).

    Alternating projections: X = min(Y, sym(p)) entrywise, with Y the
    previous X (sym(p) first) with its eigenvalues raised to at least
    `shift`; SPN_STEPS tries.  N = sym(p) - X is exact and nonnegative, so
    x^T p x >= x^T X x for every x >= 0.
    """
    psym = 0.5 * (pm + pm.T)
    for _ in range(SPN_STEPS):
        x = np.minimum((vectors * np.maximum(values, shift)) @ vectors.T, psym)
        values, vectors = eigh_descending(x)
        if values[-1] >= -margin:
            return True
    return False


def copositive_property_k(p) -> CopositivityVerdict:
    """Decide copositivity via the principal-submatrix eigenvector test.

    Each principal submatrix is eigendecomposed; an eigenvalue below
    neg_eps = 1e-10 * (1 + ||p||) whose eigenvector is one-signed (all
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
    principal submatrix S of p has such a mu when p's computed smallest
    eigenvalue is >= -neg_eps/2 (Cauchy interlacing), or when sym(p) =
    X + N is found with N >= 0 entrywise and X of that kind
    (_psd_plus_nonnegative).

    So p itself is solved first, and the call returns copositive at once
    in either case.  Otherwise the sizes 1..m-1 are solved bottom-up, one
    stack per size, and the first violation found is returned; p's own
    eigenpairs decide last.  A matrix's eigenpairs do not depend on the
    stack it is solved in, so the verdict, failing submatrix and
    certificate are those of the scan over every subset, bit for bit.
    """
    pm, norm = _as_bounded_symmetric(p)
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


_LATTICE_CACHE: dict = {}


def _simplex_lattice(m: int, resolution: int) -> np.ndarray:
    """All points k/resolution with k nonnegative integers summing to resolution.

    A lattice of more than 2^22 entries (points x m: 32 MiB of float64) is
    refused before anything is built, and the oldest cached lattices are
    evicted so that the cache stays within the same budget.
    """
    key = (m, resolution)
    cached = _LATTICE_CACHE.get(key)
    if cached is None:
        budget = 1 << 22
        entries = math.comb(resolution + m - 1, m - 1) * m
        if entries > budget:
            raise InputRejected(
                f"oracle lattice at m = {m}, resolution {resolution} has {entries} entries, "
                f"over the budget of {budget}; lower the resolution"
            )
        # stars and bars: m - 1 bar positions among resolution + m - 1 slots
        slots = resolution + m - 1
        combos = itertools.chain.from_iterable(itertools.combinations(range(slots), m - 1))
        bars = np.fromiter(combos, dtype=np.intp, count=entries // m * (m - 1))
        bars = bars.reshape(-1, m - 1)
        # the gaps between consecutive bars, written straight into the lattice
        cached = np.empty((bars.shape[0], m))
        cached[:, 0] = bars[:, 0]
        np.subtract(bars[:, 1:], bars[:, :-1], out=cached[:, 1:-1])
        cached[:, 1:-1] -= 1.0
        np.subtract(slots - 1, bars[:, -1], out=cached[:, -1])
        cached /= float(resolution)
        while sum(a.size for a in _LATTICE_CACHE.values()) + cached.size > budget:
            del _LATTICE_CACHE[next(iter(_LATTICE_CACHE))]
        _LATTICE_CACHE[key] = cached
    return cached


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0.0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _refine(pm: np.ndarray, x: np.ndarray, step: float) -> np.ndarray:
    """Up to 500 projected-gradient steps x <- proj(x - step * 2 P x) from
    x, ending once no entry moves by 1e-15.

    The matrix product runs in numpy; the rest of a step, on a handful of
    entries, runs on Python floats, where numpy's per-call cost would be
    most of the time.  The projection makes the IEEE operations of
    _project_simplex in the same order, so the bits are the same.  Every
    step is finite: ||P||_F <= NORM_CAP bounds each entry of 2 P x, x on the
    simplex, by DBL_MAX, and step * 2 P x by 1 when step <= 0.5 / ||P||_F.
    """
    twice = 2.0 * pm
    xs = x.tolist()
    for _ in range(500):
        v = [a - step * g for a, g in zip(xs, (twice @ x).tolist())]
        css = 0.0
        for k, t in enumerate(sorted(v, reverse=True), 1):
            css += t
            if t - (css - 1.0) / k > 0.0:
                rho, theta = k, css - 1.0
        theta /= rho
        nxt = [d if d > 0.0 else 0.0 for d in [t - theta for t in v]]
        x = np.array(nxt)
        if all(abs(a - b) < 1e-15 for a, b in zip(nxt, xs)):
            break
        xs = nxt
    return x


def copositive_oracle(p, resolution: int) -> CopositivityVerdict:
    """Brute-force verdict: minimize x^T P x over the unit simplex.

    Evaluates the quadratic form on the full lattice at the given
    resolution, then polishes the lattice minimizer with projected
    gradient descent.  Copositive iff the best value found stays above
    -1e-9 * (1 + ||p||); otherwise the minimizing point is the certificate.
    """
    pm, norm = _as_bounded_symmetric(p)
    if resolution < 2:
        raise InputRejected("resolution must be >= 2")
    m = pm.shape[0]
    if m == 1:
        best_x = np.ones(1)
        best_val = float(pm[0, 0])
    else:
        lattice = _simplex_lattice(m, resolution)
        values = np.einsum("ki,ij,kj->k", lattice, pm, lattice)
        best = int(np.argmin(values))
        best_x, best_val = lattice[best].copy(), float(values[best])

        # one local refinement pass from the lattice minimizer
        x = _refine(pm, best_x, 0.5 / (norm + 1.0))
        val = float(x @ pm @ x)
        if val < best_val:
            best_x, best_val = x, val

    if best_val >= -1e-9 * (1.0 + norm):
        return CopositivityVerdict(True)
    return CopositivityVerdict(False, certificate=best_x)
