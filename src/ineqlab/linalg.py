"""Dense small-matrix primitives: Frobenius geometry, commutators,
symmetric eigendecomposition, SVD, and the symmetric vectorization map.

Everything operates on plain float64 arrays, made from outside input by
`as_array` alone.  Inputs are validated (numeric, finite, square, symmetric
where required) and rejected with :class:`InputRejected`, except by the
unchecked commutator and eigen kernels, which let an overflow's inf or NaN
through to report.tolerance; a solver failure on finite input is a NumericalFailure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputRejected, NumericalFailure
from .report import tolerance

__all__ = ["commutator", "frobenius_inner", "svd", "sym_eigen", "vectorize_sym"]

# Relative tolerance for "is symmetric" input validation.
SYMMETRY_TOL = 1e-12

# Largest matrix dimension n and tuple length m the campaigns, the T operator
# and the tuple and h files accept: the work grows like n^4 or m^2 n^3.
DIM_CAP = 12

# Element budget of one campaign chunk, counting a DDVV trial as m * m * n * n.
# Chunks this small keep the kernels' arrays near cache size: 2^18 ran
# 1.2-1.4x slower per trial at n, m in 3..12 on a 2-vCPU Xeon VM.
CHUNK_ELEMENTS = 1 << 16

# Pair elements (pairs x n x n) that commutator_norms_sq forms at once.  Its
# two gathered pair copies and two products then hold 64 KiB each, which the
# heap reuses from one block to the next.  Larger arrays are fresh pages on
# every chunk: one block per chunk took about 950 minor page faults per cycle
# of the benchmark's ddvv_campaign ops, CHUNK_ELEMENTS // 4 about 580, and
# this bound 1-3 (glibc, 2-vCPU VM).
PAIR_BLOCK = CHUNK_ELEMENTS // 8


def as_array(a, name: str) -> np.ndarray:
    """`a` as a float64 array; a ragged or non-numeric `a` is refused."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputRejected(f"{name} is not a numeric array: {exc}") from exc


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a square float64 array with finite entries."""
    m = as_array(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputRejected(f"{name}: expected a square 2-D array, got shape {m.shape}")
    if m.shape[0] < 1:
        raise InputRejected(f"{name}: empty matrix")
    if not np.isfinite(m).all():
        raise InputRejected(f"{name}: entries must be finite (no NaN/Inf)")
    return m


def as_vector(v, name: str, fits, shape: str, nonnegative: bool = True) -> np.ndarray:
    """Finite (and by default nonnegative) vector whose size passes `fits`."""
    out = as_array(v, name)
    if out.ndim != 1 or not fits(out.size):
        raise InputRejected(f"{name} must be {shape}")
    if not np.isfinite(out).all():
        raise InputRejected(f"{name} entries must be finite")
    if nonnegative and (out < 0.0).any():
        raise InputRejected(f"{name} entries must be nonnegative")
    return out


def norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float((a * a).sum())


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.sqrt(norm_sq(a)))


def normalized(a: np.ndarray) -> tuple:
    """a / 2^e, e, and the Frobenius norm of a / 2^e for each matrix of an
    (..., n, n) stack, with e the frexp exponent of the matrix's max |a_ij|.
    The division is exact in the normal range, so a scale-invariant check
    decides a / 2^e, whose max |entry| is in [0.5, 1), at every scale."""
    e = np.frexp(np.abs(a).max(axis=(-2, -1)))[1]
    scaled = np.ldexp(a, -e[..., None, None])
    return scaled, e, np.sqrt((scaled * scaled).sum(axis=(-2, -1)))


def asymmetry(stack: np.ndarray, normal=None) -> tuple:
    """Max |a_ij - a_ji| of each matrix of an (..., n, n) stack, and the
    defect allowed it, SYMMETRY_TOL * (1 + ||a||).  Both are formed on
    a / 2^e (normal, when the caller has formed normalized(stack) already),
    so one past DBL_MAX reads inf, with no overflow warning."""
    scaled, e, root = normalized(stack) if normal is None else normal
    with np.errstate(over="ignore"):
        defect = np.ldexp(np.abs(scaled - scaled.swapaxes(-1, -2)).max(axis=(-2, -1)), e)
        return defect, SYMMETRY_TOL * (1.0 + np.ldexp(root, e))


def as_pair(a, b, name_a: str = "a", name_b: str = "b") -> tuple:
    """Validate two matrices with as_matrix and require equal shapes."""
    am = as_matrix(a, name_a)
    bm = as_matrix(b, name_b)
    if am.shape != bm.shape:
        raise InputRejected(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am, bm


def frobenius_inner(a, b) -> float:
    """Frobenius (Hilbert-Schmidt) inner product sum_ij a_ij b_ij."""
    am, bm = as_pair(a, b)
    return float((am * bm).sum())


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator AB - BA over (..., n, n) stacks; unchecked (callers validate)."""
    comm = a @ b
    comm -= b @ a
    return comm


@functools.lru_cache(maxsize=32)
def pair_indices(k: int) -> tuple:
    """Read-only index arrays (r, s) of every pair r < s < k in row-major
    order: np.triu_indices(k, k=1), built once per k."""
    pairs = np.triu_indices(k, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def commutator_norms_sq(stack: np.ndarray) -> np.ndarray:
    """||[A_r, A_s]||^2 for every pair r < s of an (..., m, n, n) stack, in
    row-major pair order (0, 1), (0, 2), ..., (m-2, m-1) along the last axis.

    Unchecked: the stack must already be validated (finite, square).  Each
    value equals norm_sq(commutator(A_r, A_s)) bit for bit.  A stack with
    leading axes is formed in blocks along its first axis, each of at most
    PAIR_BLOCK pair elements (or one leading index), which change no bit.
    """
    r, s = pair_indices(stack.shape[-3])
    per_index = r.size * math.prod(stack.shape[1:-3]) * stack.shape[-1] ** 2
    step = max(1, PAIR_BLOCK // max(1, per_index))
    if stack.ndim > 3 and len(stack) > step:
        return np.concatenate([commutator_norms_sq(stack[k:k + step])
                               for k in range(0, len(stack), step)])
    comm = commutator(stack[..., r, :, :], stack[..., s, :, :])
    comm *= comm
    return comm.sum(axis=(-2, -1))


def sum_in_order(values: np.ndarray) -> np.ndarray:
    """0.0 + v_0 + v_1 + ... over the last axis, left to right, as a Python
    loop adds; np.sum regroups the additions from 8 terms on."""
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return values.cumsum(axis=-1)[..., -1] + 0.0  # the loop's 0.0 start: -0.0 sums to 0.0


def check_symmetric(stack: np.ndarray, name: str) -> tuple:
    """Refuse the first matrix of a finite (n, n) or (m, n, n) stack that is
    not symmetric within SYMMETRY_TOL * (1 + ||a||), as `name`, or as
    `name k` along the leading axis; return the normalized(stack) decided on."""
    normal = normalized(stack)
    defect, allowed = asymmetry(stack, normal=normal)
    if stack.ndim == 3:
        k = int((defect > allowed).argmax())
        defect, allowed = defect[k], allowed[k]
    if defect > allowed:
        where = name if stack.ndim == 2 else f"{name} {k + 1}"
        raise InputRejected(f"{where}: not symmetric (max |a_ij - a_ji| = {defect:.3e}, "
                            f"allowed {allowed:.3e})")
    return normal


def as_symmetric(a, name: str = "matrix") -> np.ndarray:
    """as_matrix plus check_symmetric."""
    m = as_matrix(a, name)
    check_symmetric(m, name)
    return m


def is_orthogonal(p: np.ndarray) -> bool:
    """Entrywise check of p^T p = I within 1e-10."""
    n = p.shape[0]
    return bool(np.abs(p.T @ p - np.eye(n)).max() <= 1e-10)


def _solved(solver, a: np.ndarray, what: str):
    """solver(a) for a LAPACK routine; its failure on an inf or NaN `a` is the
    float-range refusal, any other failure a NumericalFailure naming `what`."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        tolerance(a)  # out of the float range: an input error, not a solver failure
        raise NumericalFailure(f"{what} did not converge: {exc}") from exc


def eigh_descending(a: np.ndarray) -> tuple:
    """Eigenvalues, descending, and unit eigenvectors (vectors[..., :, k] pairs
    with values[..., k]) of 0.5 a + 0.5 a^T, finite for finite a, over stacks; unchecked."""
    w, v = _solved(np.linalg.eigh, 0.5 * a + 0.5 * a.swapaxes(-1, -2), "eigensolver")
    return w[..., ::-1], v[..., ::-1]


def arrowhead_top(corner, diag: np.ndarray, border: np.ndarray) -> float:
    """Top eigenvalue of the arrowhead matrix with `corner` at (0, 0), `diag`
    down the rest of the diagonal and `border` along the first row and column;
    unchecked."""
    p = np.diag(np.concatenate([[corner], diag]))
    p[0, 1:] = p[1:, 0] = border
    return float(eigh_descending(p)[0][0])


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh over (..., n, n) stacks, ascending; unchecked."""
    return _solved(np.linalg.eigvalsh, a, "eigensolver")


def sym_eigen(a) -> tuple:
    """(values, vectors) of a symmetric matrix: eigh_descending behind
    as_symmetric, the entry point for outside input.

    Rejects inputs whose symmetry defect exceeds 1e-12 * (1 + ||a||).
    """
    return eigh_descending(as_symmetric(a, "a"))


def svd(x) -> tuple:
    """(q1, lam, q2) with x = q1 diag(lam) q2, q1 and q2 orthogonal and the
    singular values lam nonnegative and descending; q2 is the full right
    factor (not its transpose)."""
    return _solved(np.linalg.svd, as_matrix(x, "x"), "svd")


def vectorize_sym(a) -> np.ndarray:
    """Map a symmetric n x n matrix to a vector of length n(n+1)/2.

    Off-diagonal entries a_ij (i < j, row-major order) are listed once,
    followed by the diagonal scaled by 1/sqrt(2), so the squared Euclidean
    norm of the output equals half the squared Frobenius norm of `a`.
    """
    m = as_symmetric(a, "a")
    n = m.shape[0]
    iu, ju = pair_indices(n)
    return np.concatenate([m[iu, ju], np.diag(m) / np.sqrt(2.0)])
