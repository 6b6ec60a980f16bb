"""The Bottcher-Wenzel commutator bound ||[X, Y]||^2 <= 2 ||X||^2 ||Y||^2
for arbitrary square matrices, explored through the symmetric positive
semidefinite operator T: Y -> [X^T, [X, Y]].

The top eigenvalue of T (for unit X) is the sharp constant seen by X, it
always has multiplicity at least two (the partner eigenvector is
[X^T, Y^T]), and the singular-value reduction replaces [X, Y] by
Lambda B - C Lambda with B, C conjugates of Y.  An alternating
eigenvector ascent searches for the extremal ratio, many seeds in
lockstep over one stack, each bit for bit its standalone search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputRejected, NumericalFailure
from .linalg import (
    DIM_CAP,
    as_matrix,
    as_pair,
    commutator,
    eigh_descending,
    eigvalsh,
    frobenius_norm,
    norm_sq,
    normalized,
    svd,
)
from .report import TOL_COEFF, SlackReport
from .seeded import RandomStream, sub_seeds

__all__ = ["RatioSearchResult", "TOperator", "bw_case_matrix_bound", "bw_slack",
           "bw_spectral_slack", "maximize_ratio", "partner_eigenvector",
           "small_s1_check", "svd_reduction", "t_operator", "t_spectrum"]


@dataclass(frozen=True)
class TOperator:
    """Matrix of Y -> [X^T, [X, Y]] under row-major flattening of Y.

    `x` is stored unit-norm; `matrix` is the symmetric n^2 x n^2
    representation whose top eigenvalue is at most 2.
    """

    n: int
    x: np.ndarray
    matrix: np.ndarray

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Direct evaluation of [X^T, [X, Y]] (independent of `matrix`)."""
        return commutator(self.x.T, commutator(self.x, y))


def _unit(x, name: str) -> tuple:
    """Validated nonzero matrix scaled to unit Frobenius norm, and its norm:
    x / 2^e divided by its own norm, which neither overflows nor underflows,
    and that norm scaled back by 2^e (inf, with no warning, past DBL_MAX)."""
    scaled, e, root = normalized(as_matrix(x, name))
    if root == 0.0:
        raise InputRejected(f"{name} must be nonzero")
    with np.errstate(over="ignore"):
        return scaled / root, float(np.ldexp(root, e))


def unit_stack(a: np.ndarray) -> np.ndarray:
    """Matrices of an (..., n, n) stack scaled to unit Frobenius norm; unchecked."""
    return a / np.sqrt(np.sum(a * a, axis=(-2, -1), keepdims=True))


@functools.lru_cache(maxsize=DIM_CAP)
def basis_matrices(n: int) -> np.ndarray:
    """Read-only (n^2, n, n) stack of the standard basis matrices E_ij in
    row-major order, np.eye(n * n).reshape(-1, n, n), built once per n."""
    basis = np.eye(n * n).reshape(-1, n, n)
    basis.setflags(write=False)
    return basis


def t_matrices(xu: np.ndarray) -> np.ndarray:
    """T operator matrices of unit generators over the leading axes of xu.

    Unchecked.  Columns are the images of the standard basis matrices E_ij
    in row-major order, so matrix[..., :, i*n + j] = vec([X^T, [X, E_ij]]).
    """
    n = xu.shape[-1]
    x = xu[..., None, :, :]
    images = commutator(np.swapaxes(x, -1, -2), commutator(x, basis_matrices(n)))
    return np.swapaxes(images.reshape(xu.shape[:-2] + (n * n, n * n)), -1, -2)


def t_operator(x) -> TOperator:
    """Build the T operator of a nonzero matrix, rescaled to ||x|| = 1.

    Its n^2 x n^2 matrix takes about 3 n^4 doubles to build, so n is capped
    at DIM_CAP, the campaigns' cap (0.5 MiB at n = 12, 2.4 GB at n = 100).
    """
    xu, _ = _unit(x, "x")
    if xu.shape[0] > DIM_CAP:
        raise InputRejected(f"x is {xu.shape[0]}x{xu.shape[0]}, over the T operator's cap "
                            f"n <= {DIM_CAP}")
    return TOperator(n=xu.shape[0], x=xu, matrix=t_matrices(xu))


def t_spectrum(x) -> np.ndarray:
    """Eigenvalues of the T operator, descending."""
    return eigvalsh(t_operator(x).matrix)[::-1]


def bw_spectral_slack(x) -> SlackReport:
    """Spectral form of the bound: lambda_max(T) <= 2 for unit X."""
    return spectral_report(t_spectrum(x))


def spectral_report(values: np.ndarray) -> SlackReport:
    """The spectral bound read off an already computed descending T spectrum."""
    lhs = float(values[0])
    rhs = 2.0
    return SlackReport("bw-spectral", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def bw_sides(x: np.ndarray, y: np.ndarray, seeds=None) -> tuple:
    """||[X, Y]||^2 and ||X||^2 ||Y||^2 over leading axes, unchecked.

    Asserts the weaker constant-3 bound as a sanity layer; a failure names
    the trial seed when `seeds` (one per leading index) are given.
    """
    lhs, xx, yy = (np.sum(a * a, axis=(-2, -1)) for a in (commutator(x, y), x, y))
    scale = xx * yy
    # a sanity assertion, not a verdict: as a slack, 3 scale - lhs overflows past DBL_MAX / 3;
    # the tolerance(lhs) formula without its range check, which the verdict after it makes
    bad = np.flatnonzero(lhs > 3.0 * scale + TOL_COEFF * (1.0 + lhs))
    if bad.size:
        k = bad[0]
        where = "" if seeds is None else f"trial seed {seeds.flat[k]}: "
        raise NumericalFailure(f"{where}constant-3 sanity bound violated: "
                               f"{lhs.flat[k]} > 3 * {scale.flat[k]}")
    return lhs, scale


def bw_slack(x, y) -> SlackReport:
    """Direct form: ||[X, Y]||^2 <= 2 ||X||^2 ||Y||^2."""
    lhs, scale = map(float, bw_sides(*as_pair(x, y, "x", "y")))
    rhs = 2.0 * scale
    return SlackReport("bottcher-wenzel", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def partner_eigenvector(x, y) -> np.ndarray:
    """Partner eigenvector [X^T, Y^T] of an eigenvector Y of T.

    Checks that y really is an eigenvector (residual <= 1e-8 after unit
    normalization), then verifies the partner is Frobenius-orthogonal to y
    and satisfies the same eigenvalue equation to 1e-7.  The partner may
    legitimately be zero when the eigenvalue is zero.
    """
    top = t_operator(x)
    yu, ynorm = _unit(y, "y")
    ty = top.apply(yu)
    alpha = float(np.sum(yu * ty))
    residual = frobenius_norm(ty - alpha * yu)
    if residual > 1e-8 * (1.0 + abs(alpha)):
        raise InputRejected(
            f"y is not an eigenvector of T: residual {residual:.3e} at Rayleigh value {alpha:.6e}"
        )
    partner = commutator(top.x.T, yu.T)
    pnorm = frobenius_norm(partner)
    if alpha > 1e-10 and pnorm == 0.0:
        raise NumericalFailure("partner vanished for a positive eigenvalue")
    if abs(float(np.sum(yu * partner))) > 1e-8 * (1.0 + pnorm):
        raise NumericalFailure("partner is not orthogonal to y")
    if frobenius_norm(top.apply(partner) - alpha * partner) > 1e-7 * (1.0 + abs(alpha)) * (
        1.0 + pnorm
    ):
        raise NumericalFailure("partner does not satisfy the eigenvalue equation")
    return partner * ynorm


def svd_reduction(x, y):
    """Reduce [X, Y] through the singular decomposition X = Q1 Lambda Q2.

    Returns (lam, b, c) with b = Q2 Y Q2^-1 and c = Q1^-1 Y Q1, so that
    ||[X, Y]|| = ||diag(lam) b - c diag(lam)||.
    """
    xm, ym = as_pair(x, y, "x", "y")
    q1, lam, q2 = svd(xm)
    b = q2 @ ym @ q2.T
    c = q1.T @ ym @ q1
    return lam, b, c


def small_s1_check(x, y) -> SlackReport:
    """Reduced bound for generators with s_1^2 <= 1/2.

    After unit-normalizing x, the reduction gives
    ||Lambda B - C Lambda||^2 <= 2 ||Y||^2 whenever the top singular value
    satisfies s_1^2 <= 1/2.
    """
    xu, _ = _unit(x, "x")
    lam, b, c = svd_reduction(xu, y)
    s1_sq = lam[0] * lam[0]
    if s1_sq > 0.5 + 1e-12:
        raise InputRejected(
            f"s_1^2 = {s1_sq:.6f} > 1/2; this reduction does not apply, "
            "use bw_slack for the general bound"
        )
    lhs = norm_sq(np.diag(lam) @ b - c @ np.diag(lam))
    rhs = 2.0 * norm_sq(as_matrix(y, "y"))
    return SlackReport("small-s1", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def bw_case_matrix_bound(b, c) -> SlackReport:
    """Arrowhead bound for the large-s_1 case of the spectral proof.

    For conjugate pair (b, c) with b_11 = 0, the matrix P with corner
    Delta = sum_i b_1i^2 + sum_j c_j1^2 + c_11^2, diagonal b_i1^2 + c_1i^2
    and border -(b_1i c_1i + b_i1 c_i1) has top eigenvalue at most
    Delta + sum_i b_i1^2 + sum_j c_1j^2.
    """
    bm, cm = as_pair(b, c, "b", "c")
    n = bm.shape[0]
    if n < 2:
        raise InputRejected("n must be >= 2")
    if abs(bm[0, 0]) > 1e-12:
        raise InputRejected(f"b_11 = {bm[0, 0]:.3e} must vanish (within 1e-12)")
    corner = np.sum(bm[0, 1:] ** 2) + np.sum(cm[1:, 0] ** 2) + cm[0, 0] * cm[0, 0]
    p = np.diag(np.concatenate([[corner], bm[1:, 0] ** 2 + cm[0, 1:] ** 2]))
    p[0, 1:] = p[1:, 0] = -(bm[0, 1:] * cm[0, 1:] + bm[1:, 0] * cm[1:, 0])
    lhs = float(eigh_descending(p)[0][0])
    rhs = p[0, 0] + float(np.sum(bm[1:, 0] ** 2) + np.sum(cm[0, 1:] ** 2))
    return SlackReport("case-matrix", lhs=lhs, rhs=rhs, slack=rhs - lhs)


@dataclass(frozen=True)
class RatioSearchResult:
    best_ratio: float
    x: np.ndarray
    y: np.ndarray
    iterations: int
    converged: bool
    trajectory: tuple


def _top_eigenmatrices(x: np.ndarray) -> tuple:
    """Top eigenvalues of the T operators of a (k, n, n) stack of unit
    iterates, and their unit eigenmatrices; unchecked."""
    values, vectors = eigh_descending(t_matrices(unit_stack(x)))
    return values[:, 0], unit_stack(vectors[:, :, 0].reshape(x.shape))


def maximize_ratios(n: int, seeds: np.ndarray, max_iters: int) -> list:
    """Alternating exact maximization of ||[x, y]||^2 over unit spheres, one
    search per entry of a uint64 sub-seed array, run in lockstep.

    Each half-step replaces one argument by the top eigenvector of the
    T operator built from the other (valid since ||[x, y]|| = ||[y, x]||),
    so each ratio trajectory never decreases.  A search stops, and leaves
    the stack, when its improvement drops below 1e-12 or at max_iters; a
    half-step is one T build and one eigensolve over the stack.  Stacked
    draws and kernels equal the per-matrix ones bit for bit, so search k is
    maximize_ratio(n, seeds[k], max_iters).  A Gaussian start x is almost
    surely no multiple of the identity, whose zero T is a fixed point: 2000
    seeded starts at each n = 2..12 all had lambda_max(T) >= 0.04.
    """
    if not 2 <= n <= DIM_CAP:
        raise InputRejected(f"n = {n} outside the documented cap 2..{DIM_CAP}")
    if max_iters < 0:
        raise InputRejected("max_iters must be >= 0")
    if seeds.size < 1:
        raise InputRejected("need at least one search seed")
    stream = RandomStream(seeds)
    x, y = unit_stack(stream.gaussian_matrix(n)), unit_stack(stream.gaussian_matrix(n))
    last = np.sum(commutator(x, y) ** 2, axis=(-2, -1))
    trajectories = [[ratio] for ratio in last.tolist()]
    live = np.arange(seeds.size)
    for _ in range(max_iters):
        _, y[live] = _top_eigenmatrices(x[live])
        ratios, x[live] = _top_eigenmatrices(y[live])
        for k, ratio in zip(live.tolist(), ratios.tolist()):
            trajectories[k].append(ratio)
        keep = ~(ratios - last < 1e-12)
        live, last = live[keep], ratios[keep]
        if not live.size:
            break
    running = set(live.tolist())
    return [RatioSearchResult(best_ratio=t[-1], x=x[k], y=y[k], iterations=len(t) - 1,
                              converged=k not in running, trajectory=tuple(t))
            for k, t in enumerate(trajectories)]


def maximize_ratio(n: int, seed: int, max_iters: int) -> RatioSearchResult:
    """maximize_ratios from one 64-bit seed, which is its own trial-0 sub-seed."""
    return maximize_ratios(n, sub_seeds(seed, 0, 1), max_iters)[0]
