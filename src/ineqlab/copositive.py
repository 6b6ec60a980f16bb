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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputRejected
from .linalg import as_symmetric, frobenius_norm, sym_eigen

PROPERTY_K_DIM_CAP = 16
# eigenvector entries this close to zero carry no sign information
SIGN_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class CopositivityVerdict:
    copositive: bool
    certificate: Optional[np.ndarray] = None
    failing_submatrix: Optional[tuple] = None


def copositive_property_k(p) -> CopositivityVerdict:
    """Decide copositivity via the principal-submatrix eigenvector test.

    Every nonempty principal submatrix is eigendecomposed; an eigenvalue
    below -1e-10 * (1 + ||p||) whose eigenvector is one-signed (all
    nonnegative or all nonpositive up to the zero tolerance) disproves
    copositivity.  The certificate is the entrywise absolute value of the
    violating eigenvector, kept only when it verifiably gives x^T P x < 0.
    """
    pm = as_symmetric(p, "p")
    m = pm.shape[0]
    if m > PROPERTY_K_DIM_CAP:
        raise InputRejected(
            f"dimension {m} exceeds the principal-submatrix cap {PROPERTY_K_DIM_CAP}; "
            "use the simplex oracle for larger matrices"
        )
    neg_eps = 1e-10 * (1.0 + frobenius_norm(pm))
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            idx = np.array(subset)
            sub = pm[np.ix_(idx, idx)]
            eig = sym_eigen(sub)
            for k in range(size):
                if eig.values[k] >= -neg_eps:
                    continue
                vec = eig.vectors[:, k]
                has_pos = bool(np.any(vec > SIGN_ZERO_TOL))
                has_neg = bool(np.any(vec < -SIGN_ZERO_TOL))
                if has_pos and has_neg:
                    continue
                certificate = np.zeros(m)
                certificate[idx] = np.abs(vec)
                if float(certificate @ pm @ certificate) < 0.0:
                    return CopositivityVerdict(False, certificate=certificate,
                                               failing_submatrix=subset)
                return CopositivityVerdict(False, certificate=None, failing_submatrix=subset)
    return CopositivityVerdict(True)


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
        bars = np.pad(bars.reshape(-1, m - 1), ((0, 0), (1, 1)), constant_values=(-1, slots))
        cached = (np.diff(bars, axis=1) - 1) / float(resolution)
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


def copositive_oracle(p, resolution: int) -> CopositivityVerdict:
    """Brute-force verdict: minimize x^T P x over the unit simplex.

    Evaluates the quadratic form on the full lattice at the given
    resolution, then polishes the lattice minimizer with projected
    gradient descent.  Copositive iff the best value found stays above
    -1e-9 * (1 + ||p||); otherwise the minimizing point is the certificate.
    """
    pm = as_symmetric(p, "p")
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
        step = 0.5 / (frobenius_norm(pm) + 1.0)
        x = best_x.copy()
        for _ in range(500):
            nxt = _project_simplex(x - step * (2.0 * pm @ x))
            if float(np.max(np.abs(nxt - x))) < 1e-15:
                x = nxt
                break
            x = nxt
        val = float(x @ pm @ x)
        if val < best_val:
            best_x, best_val = x, val

    if best_val >= -1e-9 * (1.0 + frobenius_norm(pm)):
        return CopositivityVerdict(True)
    return CopositivityVerdict(False, certificate=best_x)
