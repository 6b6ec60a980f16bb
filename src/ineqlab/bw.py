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
    arrowhead_top,
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
from .report import SlackReport, tolerance
from .seeded import RandomStream, sub_seeds

__all__ = ["RatioSearchResult", "TOperator", "bw_case_matrix_bound", "bw_slack",
           "bw_spectral_slack", "maximize_ratio", "partner_eigenvector",
           "small_s1_check", "svd_reduction", "t_operator", "t_spectrum"]

# The sharp constant C of ||[X, Y]||^2 <= C ||X||^2 ||Y||^2, and so lambda_max(T) <= C.
BW_CONSTANT = 2.0


@dataclass(frozen=True, eq=False)
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
    return a / np.sqrt((a * a).sum(axis=(-2, -1), keepdims=True))


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
    images = commutator(x.swapaxes(-1, -2), commutator(x, basis_matrices(n)))
    return images.reshape(xu.shape[:-2] + (n * n, n * n)).swapaxes(-1, -2)


# The margin of a Cholesky certificate of lambda_max(T): bw-verify's screen
# certifies a block's lambda_max SCREEN_MARGIN below the least one that could
# change its summary, and a search half-step certifies lambda_max(T) below
# its Rayleigh quotient plus SCREEN_MARGIN.  For unit X, ||T||_2 <= 4
# ||X||_2^2 <= 4 (each commutator at most doubles a norm), so for
# 0 < mu <= 4 the matrix mu I - T has norm at most 4.  A Cholesky of it that
# runs to completion factors mu I - T + E with ||E||_2 <= gamma_{N+1} N
# ||mu I - T||_2, about 9.3e-12 at N = n^2 = 144 (Higham, Accuracy and
# Stability of Numerical Algorithms, Thm 10.5), so every eigenvalue of T is
# below mu + 9.3e-12; eigvalsh's own error is about N u ||T||_2 = 6.4e-14.
# 1e-9 is ~100x both.  mu I - T is formed as -T plus mu on the diagonal: the
# same numbers but for the sign of a zero, which no pivot of the Cholesky
# depends on.
SCREEN_MARGIN = 1e-9


def certified_below(tms: np.ndarray, mu) -> bool:
    """Whether one stacked Cholesky of mu I - T proves lambda_max < mu + 1e-11
    for every T matrix of the stack; mu is one number, or a (k, 1) array of
    one per matrix.  It fails for mu <= 0, T being positive semidefinite."""
    shifted = -tms
    np.einsum("...ii->...i", shifted)[...] += mu
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


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
    return SlackReport("bw-spectral", lhs=lhs, rhs=BW_CONSTANT, slack=BW_CONSTANT - lhs)


def bw_sides(x: np.ndarray, y: np.ndarray, seeds=None) -> tuple:
    """BW sides ||[X, Y]||^2 and BW_CONSTANT ||X||^2 ||Y||^2 over leading axes.

    Refuses an inf or NaN lhs (report.tolerance) and asserts the weaker
    constant-3 bound as a sanity layer; a violation names the trial seed
    when `seeds` (one per leading index) are given.
    """
    lhs, xx, yy = ((a * a).sum(axis=(-2, -1)) for a in (commutator(x, y), x, y))
    scale = xx * yy
    # a sanity assertion, not a verdict: as a slack, 3 scale - lhs overflows past DBL_MAX / 3
    bad = np.flatnonzero(lhs > 3.0 * scale + tolerance(lhs))
    if bad.size:
        k = bad[0]
        where = "" if seeds is None else f"trial seed {seeds.flat[k]}: "
        raise NumericalFailure(f"{where}constant-3 sanity bound violated: "
                               f"{lhs.flat[k]} > 3 * {scale.flat[k]}")
    return lhs, BW_CONSTANT * scale


def bw_slack(x, y) -> SlackReport:
    """Direct form: ||[X, Y]||^2 <= 2 ||X||^2 ||Y||^2."""
    lhs, rhs = map(float, bw_sides(*as_pair(x, y, "x", "y")))
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
    alpha = float((yu * ty).sum())
    residual = frobenius_norm(ty - alpha * yu)
    if residual > 1e-8 * (1.0 + abs(alpha)):
        raise InputRejected(
            f"y is not an eigenvector of T: residual {residual:.3e} at Rayleigh value {alpha:.6e}"
        )
    partner = commutator(top.x.T, yu.T)
    pnorm = frobenius_norm(partner)
    if alpha > 1e-10 and pnorm == 0.0:
        raise NumericalFailure("partner vanished for a positive eigenvalue")
    if abs(float((yu * partner).sum())) > 1e-8 * (1.0 + pnorm):
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
    rhs = BW_CONSTANT * norm_sq(as_matrix(y, "y"))
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
    corner = (bm[0, 1:] ** 2).sum() + (cm[1:, 0] ** 2).sum() + cm[0, 0] * cm[0, 0]
    lhs = arrowhead_top(corner, bm[1:, 0] ** 2 + cm[0, 1:] ** 2,
                        -(bm[0, 1:] * cm[0, 1:] + bm[1:, 0] * cm[1:, 0]))
    rhs = corner + float((bm[1:, 0] ** 2).sum() + (cm[0, 1:] ** 2).sum())
    return SlackReport("case-matrix", lhs=lhs, rhs=rhs, slack=rhs - lhs)


@dataclass(frozen=True, eq=False)
class RatioSearchResult:
    best_ratio: float
    x: np.ndarray
    y: np.ndarray
    iterations: int
    converged: bool
    trajectory: tuple


# Squarings of T behind a warm-started top eigenvector: T^128 shrinks an
# eigenvalue at 0.8 lambda_max to 4e-13 of the top one.  Squares 1, 3, 5 and 7
# are divided by their trace, which puts the top eigenvalue in [1 / n^2, 1];
# the square between keeps it in [1 / n^4, 1], far from under- and overflow.
# Dividing every square took 11% longer per bw-search op at n = 5-6.
_SQUARINGS = 7

# Largest n whose T stacks go straight to eigh: there squaring took 54% longer
# per bw-search op at n = 3, and 3.5% longer at n = 4.
_EIGH_UP_TO = 4


def _eigh_tops(tms: np.ndarray) -> tuple:
    """Top eigenvalues and eigenvectors of a stack of T matrices, by eigh."""
    values, vectors = eigh_descending(tms)
    return values[:, 0], vectors[:, :, 0]


def _power(tms: np.ndarray) -> np.ndarray:
    """T^128 over a stack of T matrices, scaled as _SQUARINGS says; the squares
    before it are freed on return, before any eigh."""
    power = tms
    for k in range(_SQUARINGS):
        power = power @ power
        if k % 2 == 0:
            power /= np.einsum("...ii->...", power)[:, None, None]
    return power


def _top_eigenmatrices(x: np.ndarray, start: np.ndarray) -> tuple:
    """Top eigenvalues of the T operators of a (k, n, n) stack of unit
    iterates, and their unit eigenmatrices, warm-started at the (k, n, n)
    stack `start`; unchecked.

    From n = _EIGH_UP_TO + 1, T^128 (_power) maps vec(start) to v, and
    lambda is v's Rayleigh quotient.  A row is kept when ||T v - lambda v||
    <= 1e-10 ||v|| and a Cholesky certifies lambda_max < lambda +
    SCREEN_MARGIN (certified_below); every other row goes to eigh.  Every
    slice of a stacked matmul, Cholesky or eigh has the bits of its
    standalone call, so each row's result is the same in any stack.
    """
    tms = t_matrices(unit_stack(x))
    if x.shape[-1] <= _EIGH_UP_TO:
        values, vectors = _eigh_tops(tms)
        return values, unit_stack(vectors.reshape(x.shape))
    v = _power(tms) @ start.reshape(len(x), -1, 1)
    tv = tms @ v
    vv, vtv = ((v * a).sum(axis=(-2, -1)) for a in (v, tv))
    values = vtv / vv
    residual = tv - values[:, None, None] * v
    kept = (residual * residual).sum(axis=(-2, -1)) <= 1e-20 * vv
    mu = values[kept, None] + SCREEN_MARGIN
    if kept.any() and not certified_below(tms[kept], mu):
        # row by row, unless the failed stack was a single row
        kept[kept] = [len(mu) > 1 and certified_below(t[None], m) for t, m in zip(tms[kept], mu)]
    vectors = v.reshape(len(x), -1)
    if not kept.all():
        values[~kept], vectors[~kept] = _eigh_tops(tms[~kept])
    return values, unit_stack(vectors.reshape(x.shape))


def maximize_ratios(n: int, seeds: np.ndarray, max_iters: int) -> list:
    """Alternating exact maximization of ||[x, y]||^2 over unit spheres, one
    search per entry of a uint64 sub-seed array, run in lockstep.

    Each half-step replaces one argument by the top eigenvector of the
    T operator built from the other (valid since ||[x, y]|| = ||[y, x]||),
    so each ratio trajectory never decreases.  A search stops, and leaves
    the stack, when its improvement drops below 1e-12 or at max_iters; a
    half-step is one T build over the stack and _top_eigenmatrices, which
    from n = 5 warm-starts each top eigenvector at the iterate it replaces
    and keeps it when certified, and otherwise, and at n <= 4, takes eigh's.
    Powers of a positive semidefinite T never lower a Rayleigh quotient.
    Stacked draws and kernels equal the per-matrix ones bit for bit, so
    search k is maximize_ratio(n, seeds[k], max_iters).  A Gaussian start x
    is almost surely no multiple of the identity, whose zero T is a fixed
    point: 2000 seeded starts at each n = 2..12 all had lambda_max(T) >= 0.04.
    """
    if not 2 <= n <= DIM_CAP:
        raise InputRejected(f"n = {n} outside the documented cap 2..{DIM_CAP}")
    if max_iters < 0:
        raise InputRejected("max_iters must be >= 0")
    if seeds.size < 1:
        raise InputRejected("need at least one search seed")
    stream = RandomStream(seeds)
    x, y = unit_stack(stream.gaussian_matrix(n)), unit_stack(stream.gaussian_matrix(n))
    last = (commutator(x, y) ** 2).sum(axis=(-2, -1))
    trajectories = [[ratio] for ratio in last.tolist()]
    live = np.arange(seeds.size)
    xs, ys = x, y  # the live searches' iterates
    for _ in range(max_iters):
        _, ys = _top_eigenmatrices(xs, ys)
        ratios, xs = _top_eigenmatrices(ys, xs)
        for k, ratio in zip(live.tolist(), ratios.tolist()):
            trajectories[k].append(ratio)
        keep = ~(ratios - last < 1e-12)
        if not keep.all():  # searches leave: store their iterates, compact the stacks
            x[live], y[live] = xs, ys
            live, ratios, xs, ys = live[keep], ratios[keep], xs[keep], ys[keep]
        last = ratios
        if not live.size:
            break
    x[live], y[live] = xs, ys
    running = set(live.tolist())
    return [RatioSearchResult(best_ratio=t[-1], x=x[k], y=y[k], iterations=len(t) - 1,
                              converged=k not in running, trajectory=tuple(t))
            for k, t in enumerate(trajectories)]


def maximize_ratio(n: int, seed: int, max_iters: int) -> RatioSearchResult:
    """maximize_ratios from one 64-bit seed, which is its own trial-0 sub-seed."""
    return maximize_ratios(n, sub_seeds(seed, 0, 1), max_iters)[0]
