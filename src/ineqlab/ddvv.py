"""The DDVV inequality for tuples of symmetric matrices and its support
structure: the orthogonal-group action and canonical reduction, the two
key lemmas behind the proof (weighted eigenvalue-gap bound, refined
commutator-sum bound) with their arrowhead-matrix argument, the explicit
equality configurations, and the Li-Li quadratic-form inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputRejected, NumericalFailure
from .linalg import (
    arrowhead_top,
    as_array,
    as_matrix,
    as_pair,
    as_symmetric,
    as_vector,
    check_symmetric,
    commutator,
    commutator_norms_sq,
    eigh_descending,
    frobenius_norm,
    is_orthogonal,
    norm_sq,
    pair_indices,
    sum_in_order,
)
from .report import SlackReport

__all__ = ["CanonicalForm", "SymmetricTuple", "canonical_reduce", "ddvv_slack",
           "extremal_case_a", "extremal_case_b", "group_act", "key_lemma_slack",
           "lemma1_slack", "lili_slack", "p_matrix_bound", "sharp_pair_bound",
           "sigma_matrix"]


@dataclass(frozen=True)
class SymmetricTuple:
    """Ordered tuple (A_1, ..., A_m) of symmetric n x n matrices, held as
    one read-only float64 array `matrices` of shape (m, n, n)."""

    n: int
    m: int
    matrices: np.ndarray

    @classmethod
    def from_matrices(cls, mats) -> "SymmetricTuple":
        """Validate the members once, as a stack: square, nonempty, finite
        and symmetric within SYMMETRY_TOL * (1 + ||A_k||)."""
        try:
            stack = np.array(mats, dtype=float)
        except (TypeError, ValueError):  # ragged or non-numeric members
            stack = np.empty(0)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
            raise InputRejected(_layout_problem(mats))
        finite = np.isfinite(stack).all(axis=(-2, -1))
        if not finite.all():
            raise InputRejected(f"member {finite.argmin() + 1}: entries must be finite (no NaN/Inf)")
        check_symmetric(stack, "member")
        stack.flags.writeable = False
        return cls(n=stack.shape[1], m=stack.shape[0], matrices=stack)

    def norms_sq(self) -> np.ndarray:
        return (self.matrices * self.matrices).sum(axis=(1, 2))

    def gram(self) -> np.ndarray:
        """Gram matrix of Frobenius inner products <A_a, A_b>."""
        return np.einsum("aij,bij->ab", self.matrices, self.matrices)


def _layout_problem(mats) -> str:
    """Name the first member that keeps `mats` from stacking to (m, n, n)."""
    not_a_sequence = f"expected a sequence of matrices, got {type(mats).__name__}"
    try:
        shapes = [as_array(a, f"member {k}").shape for k, a in enumerate(mats, start=1)]
    except TypeError:  # a number, or a 0-d array
        return not_a_sequence
    if not shapes:
        return "tuple must contain at least one matrix"
    for k, shape in enumerate(shapes, start=1):
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            return f"member {k}: expected a nonempty square 2-D array, got shape {shape}"
        if shape != shapes[0]:
            return f"member {k} is {shape[0]}x{shape[0]}, expected {shapes[0][0]}x{shapes[0][0]}"
    return not_a_sequence  # each member stacks, but numpy does not take `mats` as a sequence


# Canonical-position checks: each returns what is wrong, or None.

def _not_diagonal(a: np.ndarray, name: str):
    off_mass = frobenius_norm(a - np.diag(np.diag(a)))
    if off_mass > 1e-10 * (1.0 + frobenius_norm(a)):
        return f"{name} not diagonal (off mass {off_mass:.3e})"
    return None


def _not_unit(a: np.ndarray, name: str):
    nrm = frobenius_norm(a)
    if abs(nrm - 1.0) > 1e-10:
        return f"||{name}|| = {nrm:.12f}, need 1 within 1e-10"
    return None


def _not_orthogonal(gram: np.ndarray):
    norms = np.sqrt(np.diag(gram))
    r, s = pair_indices(gram.shape[0])
    bad = (np.abs(gram[r, s]) > 1e-10 * (1.0 + norms[r] * norms[s])).nonzero()[0]
    if bad.size:
        i, j = r[bad[0]], s[bad[0]]
        return f"members {i + 1},{j + 1} not orthogonal (<A,B> = {gram[i, j]:.3e})"
    return None


def _not_sorted(norms: np.ndarray, start: int):
    """Checks that norms[start:] is nonincreasing within 1e-12 relative; an
    overflowed norm (inf - inf is NaN) fails the check."""
    tail = norms[start:]
    bad = (~(tail[:-1] >= tail[1:] - 1e-12 * (1.0 + tail[1:]))).nonzero()[0]
    if bad.size:
        return f"member norms not nonincreasing at member {start + bad[0] + 1}"
    return None


@dataclass(frozen=True)
class CanonicalForm:
    """Reduced tuple plus the group element (p, q) that produced it."""

    reduced: SymmetricTuple
    p: np.ndarray
    q: np.ndarray
    degenerate: bool = False


def ddvv_sides(stack: np.ndarray) -> tuple:
    """DDVV sides (sum ||A_r||^2)^2 and 2 sum_{r<s} ||[A_r, A_s]||^2 of an
    (..., m, n, n) stack, one value per leading index.  Unchecked: the
    members must already be validated."""
    total = (stack * stack).sum(axis=(-2, -1)).sum(axis=-1)
    lhs = np.multiply(total, total)
    rhs = 2.0 * sum_in_order(commutator_norms_sq(stack))
    return lhs, rhs


def ddvv_slack(t: SymmetricTuple) -> SlackReport:
    """DDVV inequality: (sum ||A_r||^2)^2 >= 2 sum_{r<s} ||[A_r, A_s]||^2."""
    lhs, rhs = (float(side) for side in ddvv_sides(t.matrices))
    return SlackReport("ddvv", lhs=lhs, rhs=rhs, slack=lhs - rhs)


def group_act(t: SymmetricTuple, p, q) -> SymmetricTuple:
    """Apply (p, q) in O(n) x O(m): conjugate each member by p, mix members by q."""
    pm = as_matrix(p, "p")
    qm = as_matrix(q, "q")
    for name, g, size in (("p", pm, t.n), ("q", qm, t.m)):
        if g.shape[0] != size:
            raise InputRejected(f"{name} must be {size}x{size}")
        if not is_orthogonal(g):
            raise InputRejected(f"{name} is not orthogonal within 1e-10")
    mixed = np.einsum("rj,jab->rab", qm, pm @ t.matrices @ pm.T)
    return SymmetricTuple.from_matrices(mixed)


def canonical_reduce(t: SymmetricTuple) -> CanonicalForm:
    """Reduce a tuple to canonical position under the O(n) x O(m) action.

    First an O(m) rotation diagonalizes the Gram matrix (eigenvalues
    descending, so the members come out pairwise Frobenius-orthogonal with
    nonincreasing norms), then an O(n) conjugation diagonalizes the new
    leading member.  Conjugation preserves all pairwise inner products, so
    both normalizations coexist.  The all-zero tuple is returned unchanged
    with the degenerate flag set.
    """
    q = eigh_descending(t.gram())[1].T
    mixed = np.einsum("rj,jab->rab", q, t.matrices)

    degenerate = frobenius_norm(mixed[0]) <= 1e-14 * (1.0 + frobenius_norm(t.matrices))
    if degenerate:
        p = np.eye(t.n)
        reduced_stack = mixed
    else:
        p = eigh_descending(mixed[0])[1].T
        reduced_stack = p @ mixed @ p.T
        # cosmetic determinism: make the first nonzero diagonal entry of A_1 positive
        diag = np.diag(reduced_stack[0])
        nonzero = (np.abs(diag) > 1e-12 * (1.0 + frobenius_norm(reduced_stack[0]))).nonzero()[0]
        if nonzero.size and diag[nonzero[0]] < 0.0:
            q[0] *= -1.0
            reduced_stack[0] *= -1.0

    # an orthogonal transform of a validated tuple: nothing to re-validate
    reduced_stack.flags.writeable = False
    form = CanonicalForm(reduced=SymmetricTuple(n=t.n, m=t.m, matrices=reduced_stack),
                         p=p, q=q, degenerate=degenerate)
    _verify_canonical(t, form)
    return form


def _verify_canonical(original: SymmetricTuple, form: CanonicalForm) -> None:
    """Postcondition audit; raises NumericalFailure if the reduction is unsound."""
    red = form.reduced
    norms = np.sqrt(red.norms_sq())
    problem = (_not_diagonal(red.matrices[0], "reduced A_1")
               or _not_orthogonal(red.gram()) or _not_sorted(norms, 0))
    if problem:
        raise NumericalFailure(problem)
    replay = group_act(original, form.p, form.q)
    errs = np.sqrt(((replay.matrices - red.matrices) ** 2).sum(axis=(1, 2)))
    bad = (errs > 1e-9 * (1.0 + norms)).nonzero()[0]
    if bad.size:
        raise NumericalFailure(f"(p, q) does not reproduce reduced member {bad[0] + 1}")


def lemma1_slack(eta, r) -> SlackReport:
    """Weighted eigenvalue-gap bound.

    For eta with zero sum and unit square sum and nonnegative weights
    r_ij (i < j):  sum_{i<j} (eta_i - eta_j)^2 r_ij <= sum r_ij + max r_ij.
    Only the strict upper triangle of `r` is read.
    """
    ev = as_vector(eta, "eta", lambda k: k >= 2, "a vector of length >= 2", nonnegative=False)
    if abs(float(ev.sum())) > 1e-10:
        raise InputRejected(f"sum(eta) = {ev.sum():.3e}, must vanish within 1e-10")
    if abs(float((ev * ev).sum()) - 1.0) > 1e-10:
        raise InputRejected(f"sum(eta^2) = {(ev * ev).sum():.6e}, must be 1 within 1e-10")
    n = ev.size
    rm = as_matrix(r, "r")
    if rm.shape[0] != n:
        raise InputRejected(f"weights must be {n}x{n} to match eta")
    iu, ju = pair_indices(n)
    weights = rm[iu, ju]
    if (weights < 0.0).any():
        raise InputRejected("weights r_ij must be nonnegative")
    gaps = (ev[iu] - ev[ju]) ** 2
    lhs = float((gaps * weights).sum())
    rhs = float(weights.sum() + weights.max())
    return SlackReport("weighted-gap", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def p_matrix_bound(s) -> SlackReport:
    """Largest eigenvalue of the arrowhead matrix behind the gap bound.

    P has corner sum(s), diagonal s_j, and -s_j on the first row/column;
    its top eigenvalue is at most sum(s) + max(s).
    """
    sv = as_vector(s, "s", lambda k: k >= 1, "a nonempty vector")
    lhs = arrowhead_top(sv.sum(), sv, -sv)
    rhs = float(sv.sum() + sv.max())
    return SlackReport("arrowhead-bound", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def key_lemma_slack(t: SymmetricTuple) -> SlackReport:
    """Refined commutator-sum bound for a canonical tuple.

    With A_1 diagonal of unit norm and A_2..A_m pairwise orthogonal with
    nonincreasing norms:
    sum_{a>=2} ||[A_1, A_a]||^2 <= sum_{a>=2} ||A_a||^2 + ||A_2||^2.
    """
    a1 = t.matrices[0]
    norms_sq = t.norms_sq()
    problem = (_not_diagonal(a1, "A_1") or _not_unit(a1, "A_1")
               or _not_orthogonal(t.gram()) or _not_sorted(np.sqrt(norms_sq), 1))
    if problem:
        raise InputRejected(f"precondition failed: {problem}")
    lhs = float(sum_in_order(commutator_norms_sq(t.matrices)[: t.m - 1]))
    tail = float(norms_sq[1:].sum())
    rhs = tail + (float(norms_sq[1]) if t.m >= 2 else 0.0)
    return SlackReport("commutator-sum-bound", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def sharp_pair_bound(a, b) -> SlackReport:
    """Entrywise-sharp pair estimate ||[A, B]||^2 <= ||B||^2 + 2 max(b_ij)^2
    for diagonal unit-norm A and symmetric B."""
    am, bm = as_pair(a, as_symmetric(b, "b"))
    problem = _not_diagonal(am, "a") or _not_unit(am, "a")
    if problem:
        raise InputRejected(problem)
    lhs = norm_sq(commutator(am, bm))
    peak = float(np.abs(bm).max())
    rhs = norm_sq(bm) + 2.0 * (peak * peak)
    return SlackReport("sharp-pair-bound", lhs=lhs, rhs=rhs, slack=rhs - lhs)


def extremal_case_a(n: int, c: float) -> SymmetricTuple:
    """Two-member equality configuration: the 2x2 Pauli-like pair embedded
    in n x n, second member scaled by `c`.  Gives DDVV equality at c^2 = 1
    and commutator-sum-bound equality for every c."""
    if n < 2:
        raise InputRejected("n must be >= 2")
    s = 1.0 / np.sqrt(2.0)
    a1 = np.zeros((n, n))
    a1[0, 0] = s
    a1[1, 1] = -s
    a2 = np.zeros((n, n))
    a2[0, 1] = a2[1, 0] = float(c) * s
    return SymmetricTuple.from_matrices([a1, a2])


def extremal_case_b(n: int, mu: float) -> SymmetricTuple:
    """n-member equality configuration of the commutator-sum bound:
    spike-diagonal leading member, first-row symmetric pairs scaled by `mu`."""
    if n < 2:
        raise InputRejected("n must be >= 2")
    lam = 1.0 / np.sqrt(n * (n - 1.0))
    a1 = np.diag(np.full(n, -lam))
    a1[0, 0] = lam * (n - 1.0)
    members = [a1]
    for alpha in range(1, n):
        m = np.zeros((n, n))
        m[0, alpha] = m[alpha, 0] = float(mu)
        members.append(m)
    return SymmetricTuple.from_matrices(members)


def sigma_matrix(t: SymmetricTuple) -> np.ndarray:
    """Pairwise squared commutator norms sigma_ij = ||[A_i, A_j]||^2 for a
    tuple of unit-norm members."""
    norms = np.sqrt(t.norms_sq())
    bad = (np.abs(norms - 1.0) > 1e-10).nonzero()[0]
    if bad.size:
        raise InputRejected(
            f"member {bad[0] + 1} has norm {norms[bad[0]]:.12f}, all members must be unit norm"
        )
    sigma = np.zeros((t.m, t.m))
    r, s = pair_indices(t.m)
    sigma[r, s] = sigma[s, r] = commutator_norms_sq(t.matrices)
    return sigma


def lili_slack(sigma, x) -> SlackReport:
    """Li-Li inequality: sum sigma_ij x_i x_j <= 3/2 (sum x_i)^2 - sum x_i^2
    for nonnegative x."""
    sm = as_symmetric(sigma, "sigma")
    xv = as_vector(x, "x", lambda k: k == sm.shape[0], f"a vector of length {sm.shape[0]}")
    lhs = float(xv @ sm @ xv)
    total = float(xv.sum())
    rhs = 1.5 * total * total - float((xv * xv).sum())
    return SlackReport("li-li", lhs=lhs, rhs=rhs, slack=rhs - lhs)
