import itertools

import numpy as np
import pytest
from conftest import offdiag2
from numpy.testing import assert_allclose, assert_array_equal

from ineqlab import ddvv
from ineqlab.copositive import copositive_property_k
from ineqlab.ddvv import (
    SymmetricTuple,
    canonical_reduce,
    ddvv_sides,
    ddvv_slack,
    extremal_case_a,
    extremal_case_b,
    group_act,
    key_lemma_slack,
    lemma1_slack,
    lili_slack,
    p_matrix_bound,
    sharp_pair_bound,
    sigma_matrix,
)
from ineqlab.errors import InputRejected, NumericalFailure
from ineqlab.linalg import PAIR_BLOCK, commutator, norm_sq
from ineqlab.seeded import RandomStream, sub_seed, sub_seeds

S2 = 1.0 / np.sqrt(2.0)


def random_tuple(stream, n, m):
    return SymmetricTuple.from_matrices(stream.symmetric_tuple(n, m))


class TestDdvvSlack:
    def test_single_member(self):
        a = RandomStream(11).symmetric_matrix(4)
        rep = ddvv_slack(SymmetricTuple.from_matrices([a]))
        assert rep.rhs == 0.0
        assert rep.slack == pytest.approx(norm_sq(a) ** 2, rel=1e-15)

    def test_extremal_pair(self):
        rep = ddvv_slack(extremal_case_a(2, 1.0))
        assert rep.lhs == pytest.approx(4.0, abs=1e-14)
        assert rep.rhs == pytest.approx(4.0, abs=1e-14)
        assert abs(rep.slack) <= 1e-12

    def test_random_campaign(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(101, k))
            n, m = 2 + k % 5, 2 + (k // 5) % 5
            rep = ddvv_slack(random_tuple(stream, n, m))
            assert rep.slack >= -rep.tol

    def test_rejects_asymmetric_member(self):
        with pytest.raises(InputRejected, match="member 2"):
            SymmetricTuple.from_matrices([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_huge_entries(self):
        # ||A_k||^2 overflows; the prescaled norm keeps the allowed defect finite
        assert SymmetricTuple.from_matrices([np.diag([1e200, -1e200])]).m == 1
        skew = np.array([[1e200, 1e190], [0.0, 1e200]])
        with pytest.raises(InputRejected,
                           match=r"member 2: not symmetric \(.*, allowed 1\.414e\+188\)"):
            SymmetricTuple.from_matrices([np.eye(2), skew])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InputRejected, match="member 2"):
            SymmetricTuple.from_matrices([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("mats,member", [
        ([np.eye(2), np.eye(2), np.eye(3)], 3),                       # ragged stack
        ([np.ones(2), np.ones(2)], 1),                                # 1-D members
        ([np.eye(2), np.ones((2, 3)), np.eye(2)], 2),                 # non-square
        ([np.eye(2), np.eye(2), np.diag([1.0, np.nan])], 3),          # NaN entry
        ([np.eye(3), np.triu(np.ones((3, 3))), np.eye(3)], 2),        # asymmetric
    ], ids=["ragged", "1-D", "non-square", "NaN", "asymmetric"])
    def test_rejects_bad_member(self, mats, member):
        with pytest.raises(InputRejected, match=f"member {member}"):
            SymmetricTuple.from_matrices(mats)

    def test_members_held_as_one_readonly_stack(self):
        t = random_tuple(RandomStream(12), 4, 3)
        assert t.matrices.shape == (3, 4, 4) and t.matrices.dtype == np.float64
        assert not t.matrices.flags.writeable


def _pair_norms_in_order(mats):
    """Reference ||[A_r, A_s]||^2 in row-major pair order, one pair at a time."""
    return [norm_sq(commutator(a, b)) for a, b in itertools.combinations(mats, 2)]


def _sum_in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestCommutatorKernelExactness:
    """The stacked kernel reproduces the pairwise reference bit for bit over
    the seeded grid n, m in 1..12."""

    GRID = [(n, m) for n in range(1, 13) for m in range(1, 13)]

    def test_ddvv_rhs_and_sigma(self):
        for k in range(5 * len(self.GRID)):
            n, m = self.GRID[k % len(self.GRID)]
            mats = RandomStream(sub_seed(91, k)).symmetric_tuple(n, m)
            ref = _pair_norms_in_order(mats)
            assert ddvv_slack(SymmetricTuple.from_matrices(mats)).rhs == 2.0 * _sum_in_order(ref)
            units = [a / np.linalg.norm(a) for a in mats]
            sigma = sigma_matrix(SymmetricTuple.from_matrices(units))
            pairs = itertools.combinations(range(m), 2)
            for (r, s), want in zip(pairs, _pair_norms_in_order(units)):
                assert sigma[r, s] == want and sigma[s, r] == want

    def test_key_lemma_lhs(self):
        # canonical position needs m <= n(n+1)/2 linearly independent members
        for k, (n, m) in enumerate(self.GRID):
            if m > n * (n + 1) // 2:
                continue
            red = canonical_reduce(random_tuple(RandomStream(sub_seed(92, k)), n, m)).reduced
            lead = np.linalg.norm(red.matrices[0])
            t = SymmetricTuple.from_matrices([a / lead for a in red.matrices])
            ref = _pair_norms_in_order(t.matrices)[: m - 1]
            assert key_lemma_slack(t).lhs == _sum_in_order(ref)

    def test_chunk_blocks_equal_single_tuples(self):
        # a 40-trial campaign chunk forms its pair commutators in several
        # blocks at (5, 6), (6, 6) and (12, 12), and in one at m = 1 (no pairs)
        for n, m in [(5, 6), (6, 6), (12, 12)]:
            assert 40 * (m * (m - 1) // 2) * n * n > PAIR_BLOCK
        for k, (n, m) in enumerate(self.GRID):
            stack = RandomStream(sub_seeds(94, 40 * k, 40 * k + 40)).symmetric_tuple(n, m)
            lhs, rhs = ddvv_sides(stack)
            for t, mats in enumerate(stack):
                for one in (mats, mats[None]):
                    assert ddvv_sides(one) == (lhs[t], rhs[t]), (n, m, t)


class TestDdvvSides:
    """The left side is the correctly rounded square of the norm sum."""

    def test_lhs_where_pow_is_one_ulp_off(self):
        # libm pow(t, 2) rounds this t^2 to the other neighbour of t * t
        a = float.fromhex("0x1.fcbd835bc8fd3p+0")
        t = a * a
        lhs, rhs = ddvv_sides(np.array([[[a]]]))
        assert (lhs, rhs) == (t * t, 0.0)

    def test_lhs_is_the_product_over_the_grid(self):
        for k, (n, m) in enumerate(TestCommutatorKernelExactness.GRID):
            stack = RandomStream(sub_seeds(93, 50 * k, 50 * k + 50)).symmetric_tuple(n, m)
            total = np.sum(np.sum(stack * stack, axis=(-2, -1)), axis=-1)
            assert_array_equal(ddvv_sides(stack)[0], np.multiply(total, total), err_msg=f"{n}, {m}")


class TestGroupAct:
    def test_identity_action(self):
        t = random_tuple(RandomStream(21), 3, 3)
        out = group_act(t, np.eye(3), np.eye(3))
        for a, b in zip(t.matrices, out.matrices):
            assert_allclose(a, b, atol=0.0)

    def test_conjugation_invariance(self):
        # both sides of the inequality are invariant under the group action
        for k in range(200):
            stream = RandomStream(sub_seed(22, k))
            n, m = 2 + k % 4, 2 + k % 3
            t = random_tuple(stream, n, m)
            p = stream.orthogonal_matrix(n)
            q = stream.orthogonal_matrix(m)
            before = ddvv_slack(t)
            after = ddvv_slack(group_act(t, p, q))
            assert after.lhs == pytest.approx(before.lhs, rel=1e-9)
            assert after.rhs == pytest.approx(before.rhs, rel=1e-9, abs=1e-9)

    def test_permutation_mix(self):
        t = random_tuple(RandomStream(23), 3, 3)
        q = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = group_act(t, np.eye(3), q)
        assert_allclose(out.matrices[0], t.matrices[1], atol=0.0)
        assert_allclose(out.matrices[1], -t.matrices[0], atol=0.0)
        assert_allclose(out.matrices[2], t.matrices[2], atol=0.0)

    def test_rejects_non_orthogonal(self):
        t = random_tuple(RandomStream(24), 3, 2)
        with pytest.raises(InputRejected, match="orthogonal"):
            group_act(t, np.eye(3) * 1.5, np.eye(2))
        with pytest.raises(InputRejected, match="orthogonal"):
            group_act(t, np.eye(3), np.full((2, 2), 0.5))


class TestCanonicalReduce:
    def test_already_canonical_family(self):
        t = extremal_case_b(3, 0.4)
        form = canonical_reduce(t)
        # the Gram spectrum is preserved and the reduced tuple stays equivalent
        before = np.sort(np.linalg.eigvalsh(t.gram()))
        after = np.sort(np.linalg.eigvalsh(form.reduced.gram()))
        assert_allclose(after, before, atol=1e-12)
        assert not form.degenerate

    def test_zero_tuple_degenerate(self):
        t = SymmetricTuple.from_matrices([np.zeros((3, 3)), np.zeros((3, 3))])
        form = canonical_reduce(t)
        assert form.degenerate
        assert_allclose(form.p, np.eye(3), atol=0.0)
        for a in form.reduced.matrices:
            assert_allclose(a, np.zeros((3, 3)), atol=0.0)

    @pytest.mark.parametrize("t", [extremal_case_b(3, 0.4),
                                   SymmetricTuple.from_matrices([np.zeros((2, 2))])])
    def test_reduced_tuple_is_read_only(self, t):
        reduced = canonical_reduce(t).reduced.matrices
        assert not reduced.flags.writeable
        with pytest.raises(ValueError):
            reduced[0, 0, 0] = 1.0

    def test_overflowed_gram_is_refused(self):
        # with overflow ignored the Gram matrix reads inf; the eigensolve
        # behind it is unchecked, so the audit must refuse the reduction
        t = SymmetricTuple.from_matrices([1e200 * np.eye(2), np.diag([1.0, -1.0])])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((InputRejected, NumericalFailure)):
                canonical_reduce(t)

    def test_replay_mismatch_is_numerical_failure(self, monkeypatch):
        # the audit replays (p, q) on the original tuple; a replay that
        # returns the tuple unchanged cannot match its diagonalized leader
        t = SymmetricTuple.from_matrices([[[2.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 3.0]]])
        monkeypatch.setattr(ddvv, "group_act", lambda t, p, q: t)
        with pytest.raises(NumericalFailure, match=r"^\(p, q\) does not reproduce reduced member 1$"):
            canonical_reduce(t)

    def test_random_postconditions(self):
        for k in range(200):
            stream = RandomStream(sub_seed(31, k))
            n, m = 2 + k % 5, 2 + k % 4
            t = random_tuple(stream, n, m)
            form = canonical_reduce(t)  # postconditions audited internally
            before, after = ddvv_slack(t), ddvv_slack(form.reduced)
            assert after.lhs == pytest.approx(before.lhs, rel=1e-9)
            assert after.rhs == pytest.approx(before.rhs, rel=1e-9, abs=1e-9)
            a1 = form.reduced.matrices[0]
            diag = np.diag(a1)
            nonzero = diag[np.abs(diag) > 1e-12 * (1 + np.linalg.norm(a1))]
            if nonzero.size:
                assert nonzero[0] > 0.0

    def test_dependent_members(self):
        # m > n(n+1)/2 members are linearly dependent: the Gram matrix has
        # eigenvalues that vanish up to rounding, and the reduction still holds
        rng = np.random.default_rng(33)
        for k in range(60):
            n = 1 + k % 4
            m = min(12, n * (n + 1) // 2 + 1 + k % 5)
            g = rng.standard_normal((m, n, n))
            for mats in (RandomStream(sub_seed(33, k)).symmetric_tuple(n, m),
                         g + np.swapaxes(g, 1, 2)):
                t = SymmetricTuple.from_matrices(mats)
                before, after = ddvv_slack(t), ddvv_slack(canonical_reduce(t).reduced)
                assert after.lhs == pytest.approx(before.lhs, rel=1e-9)
                assert after.rhs == pytest.approx(before.rhs, rel=1e-9, abs=1e-9)


class TestLemma1:
    def test_equality_case_one(self):
        eta = np.array([S2, 0.0, -S2])
        r = np.zeros((3, 3))
        r[0, 2] = 1.0
        rep = lemma1_slack(eta, r)
        assert rep.lhs == pytest.approx(2.0, abs=1e-14)
        assert rep.rhs == pytest.approx(2.0, abs=1e-14)
        assert abs(rep.slack) <= 1e-12

    def test_equality_case_two(self):
        eta = np.array([np.sqrt(2.0 / 3.0), -1.0 / np.sqrt(6.0), -1.0 / np.sqrt(6.0)])
        r = np.zeros((3, 3))
        r[0, 1] = r[0, 2] = 1.0
        rep = lemma1_slack(eta, r)
        assert rep.lhs == pytest.approx(3.0, abs=1e-14)
        assert rep.rhs == pytest.approx(3.0, abs=1e-14)
        assert abs(rep.slack) <= 1e-12

    def test_random_admissible(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(41, k))
            n = 2 + k % 6
            eta = stream.normals(n)
            eta -= eta.mean()
            nrm = np.linalg.norm(eta)
            if nrm < 1e-8:
                continue
            eta /= nrm
            r = np.abs(stream.gaussian_matrix(n))
            rep = lemma1_slack(eta, r)
            assert rep.slack >= -1e-10 * (1.0 + rep.rhs)

    def test_rejects_bad_eta(self):
        with pytest.raises(InputRejected, match="sum"):
            lemma1_slack(np.array([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(InputRejected, match="sum"):
            lemma1_slack(np.array([1.0, -1.0]), np.zeros((2, 2)))

    def test_rejects_negative_weight(self):
        r = np.zeros((2, 2))
        r[0, 1] = -0.1
        with pytest.raises(InputRejected, match="nonnegative"):
            lemma1_slack(np.array([S2, -S2]), r)


class TestArrowheadBound:
    def test_single_weight(self):
        rep = p_matrix_bound([1.0])
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-10

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_equal_weights(self, k):
        rep = p_matrix_bound(np.ones(k))
        assert rep.lhs == pytest.approx(k + 1.0, abs=1e-10)
        assert abs(rep.slack) <= 1e-9

    def test_unequal_weights_strict(self):
        rep = p_matrix_bound([3.0, 1.0])
        assert rep.lhs < 7.0
        assert rep.slack > 0.3

    def test_rejects_negative(self):
        with pytest.raises(InputRejected, match="nonnegative"):
            p_matrix_bound([1.0, -2.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corner_past_the_float_range_rejected(self):
        # sum(s) overflows; the solver once failed on the inf corner
        with pytest.raises(InputRejected, match="input out of the float range"):
            p_matrix_bound([1e308, 1e308])

    def test_random_weights(self):
        for k in range(500):
            stream = RandomStream(sub_seed(51, k))
            s = np.abs(stream.normals(1 + k % 7))
            rep = p_matrix_bound(s)
            assert rep.slack >= -rep.tol


class TestKeyLemma:
    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5, -0.7])
    def test_extremal_pair_any_scale(self, c):
        rep = key_lemma_slack(extremal_case_a(3, c))
        assert abs(rep.slack) <= 1e-12 * (1.0 + abs(rep.lhs))

    def test_spike_family_n3(self):
        rep = key_lemma_slack(extremal_case_b(3, S2))
        assert rep.lhs == pytest.approx(3.0, abs=1e-12)
        assert rep.rhs == pytest.approx(3.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-12

    def test_random_canonicalized(self):
        for k in range(5000):
            stream = RandomStream(sub_seed(61, k))
            n, m = 2 + k % 5, 2 + k % 4
            t = random_tuple(stream, n, m)
            red = canonical_reduce(t).reduced
            lead = np.linalg.norm(red.matrices[0])
            if lead < 1e-8:
                continue
            scaled = SymmetricTuple.from_matrices([a / lead for a in red.matrices])
            rep = key_lemma_slack(scaled)
            assert rep.slack >= -rep.tol

    def test_precondition_messages(self):
        t = SymmetricTuple.from_matrices([offdiag2(S2), np.eye(2)])
        with pytest.raises(InputRejected, match="not diagonal"):
            key_lemma_slack(t)
        t = SymmetricTuple.from_matrices([np.diag([1.0, -1.0]), offdiag2(1.0)])
        with pytest.raises(InputRejected, match=r"\|\|A_1\|\|"):
            key_lemma_slack(t)
        t = SymmetricTuple.from_matrices([np.diag([S2, -S2]), np.diag([1.0, 0.0])])
        with pytest.raises(InputRejected, match="not orthogonal"):
            key_lemma_slack(t)
        t = SymmetricTuple.from_matrices(
            [np.diag([S2, -S2, 0.0]), 0.1 * offdiag2(S2, 3), _sym13(0.5)]
        )
        with pytest.raises(InputRejected, match="nonincreasing"):
            key_lemma_slack(t)


def _sym13(v):
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = v
    return m


class TestSharpPair:
    def test_extremal_pair(self):
        rep = sharp_pair_bound(np.diag([S2, -S2]), offdiag2(S2))
        assert rep.lhs == pytest.approx(2.0, abs=1e-14)
        assert rep.rhs == pytest.approx(2.0, abs=1e-14)
        assert abs(rep.slack) <= 1e-12

    def test_commuting_diagonals(self):
        b = np.diag([2.0, -1.0, 0.5])
        rep = sharp_pair_bound(np.diag([S2, -S2, 0.0]), b)
        assert rep.lhs == 0.0
        assert rep.slack == pytest.approx(rep.rhs, abs=0.0)

    def test_random_campaign_with_crude_bound(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(71, k))
            n = 2 + k % 5
            diag = stream.normals(n)
            diag /= np.linalg.norm(diag)
            a = np.diag(diag)
            b = stream.symmetric_matrix(n)
            rep = sharp_pair_bound(a, b)
            assert rep.slack >= -rep.tol
            # the two-norm-product bound holds independently
            crude = 2.0 * norm_sq(a) * norm_sq(b)
            assert rep.lhs <= crude + 1e-9 * (1.0 + crude)

    def test_rejects_nonunit(self):
        with pytest.raises(InputRejected, match="need 1"):
            sharp_pair_bound(np.diag([1.0, -1.0]), offdiag2(1.0))


class TestExtremalConstructors:
    def test_case_a_exact_entries(self):
        t = extremal_case_a(2, 1.0)
        assert_allclose(t.matrices[0], np.diag([S2, -S2]), atol=0.0)
        assert_allclose(t.matrices[1], offdiag2(S2), atol=0.0)

    def test_case_a_padded(self):
        t = extremal_case_a(5, 1.0)
        assert t.n == 5
        assert abs(ddvv_slack(t).slack) <= 1e-12
        assert abs(key_lemma_slack(t).slack) <= 1e-12

    def test_case_a_zero_scale(self):
        t = extremal_case_a(2, 0.0)
        assert norm_sq(t.matrices[1]) == 0.0
        assert abs(key_lemma_slack(t).slack) <= 1e-12

    def test_case_b_matches_rotated_pair(self):
        mu = 0.37
        tb = extremal_case_b(2, mu)
        ta = extremal_case_a(2, np.sqrt(2.0) * mu)
        assert abs(key_lemma_slack(tb).slack) <= 1e-12
        assert abs(key_lemma_slack(ta).slack) <= 1e-12
        assert_allclose(
            np.linalg.eigvalsh(tb.gram()), np.linalg.eigvalsh(ta.gram()), atol=1e-14
        )

    def test_case_b_zero_mu(self):
        t = extremal_case_b(4, 0.0)
        assert t.m == 4
        for a in t.matrices[1:]:
            assert norm_sq(a) == 0.0
        canonical_reduce(t)  # trivially canonicalizable

    def test_rejects_small_n(self):
        with pytest.raises(InputRejected):
            extremal_case_a(1, 1.0)
        with pytest.raises(InputRejected):
            extremal_case_b(1, 1.0)


class TestSigmaMatrix:
    def test_commuting_tuple(self):
        d1 = np.diag([S2, -S2, 0.0])
        d2 = np.diag([0.0, S2, -S2])
        sigma = sigma_matrix(SymmetricTuple.from_matrices([d1, d2]))
        assert_allclose(sigma, np.zeros((2, 2)), atol=0.0)

    def test_extremal_pair(self):
        sigma = sigma_matrix(extremal_case_a(2, 1.0))
        assert_allclose(sigma, [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)

    def test_rejects_nonunit(self):
        with pytest.raises(InputRejected, match="unit norm"):
            sigma_matrix(SymmetricTuple.from_matrices([np.eye(2), offdiag2(S2)]))

    def test_entries_bounded_and_gap_matrix_pseudopositive(self):
        for k in range(150):
            stream = RandomStream(sub_seed(81, k))
            n, m = 2 + k % 4, 2 + k % 5
            mats = []
            for a in stream.symmetric_tuple(n, m):
                mats.append(a / np.linalg.norm(a))
            t = SymmetricTuple.from_matrices(mats)
            sigma = sigma_matrix(t)
            assert np.all(sigma >= 0.0)
            assert np.all(sigma <= 2.0 + 1e-10)
            verdict = copositive_property_k(np.ones((m, m)) - sigma)
            assert verdict.copositive


class TestLiLi:
    def test_zero_vector(self):
        sigma = sigma_matrix(extremal_case_a(2, 1.0))
        rep = lili_slack(sigma, np.zeros(2))
        assert rep.slack == 0.0

    def test_extremal_equality(self):
        sigma = sigma_matrix(extremal_case_a(2, 1.0))
        rep = lili_slack(sigma, np.ones(2))
        assert rep.lhs == pytest.approx(4.0, abs=1e-14)
        assert rep.rhs == pytest.approx(4.0, abs=1e-14)
        assert abs(rep.slack) <= 1e-12

    def test_rejects_negative_x(self):
        sigma = sigma_matrix(extremal_case_a(2, 1.0))
        with pytest.raises(InputRejected, match="nonnegative"):
            lili_slack(sigma, np.array([1.0, -0.5]))

    def test_random_campaign(self):
        for k in range(1500):
            stream = RandomStream(sub_seed(91, k))
            n, m = 2 + k % 4, 2 + k % 5
            mats = [a / np.linalg.norm(a) for a in stream.symmetric_tuple(n, m)]
            sigma = sigma_matrix(SymmetricTuple.from_matrices(mats))
            x = stream.uniforms(m)
            rep = lili_slack(sigma, x)
            assert rep.slack >= -rep.tol
            # the quadratic bound implied by the main inequality holds too
            quad = float(x @ sigma @ x)
            total = float(np.sum(x)) ** 2
            assert quad <= total + 1e-9 * (1.0 + total)


class TestVectorPreconditions:
    # the messages of the shared vector check, word for word
    @pytest.mark.parametrize("call, message", [
        (lambda: lemma1_slack([1.0], np.eye(1)), "eta must be a vector of length >= 2"),
        (lambda: lemma1_slack(np.eye(2), np.eye(2)), "eta must be a vector of length >= 2"),
        (lambda: lemma1_slack([S2, np.nan], np.eye(2)), "eta entries must be finite"),
        (lambda: lemma1_slack([-S2, S2], -np.ones((2, 2))),
         "weights r_ij must be nonnegative"),
        (lambda: p_matrix_bound([]), "s must be a nonempty vector"),
        (lambda: p_matrix_bound(3.0), "s must be a nonempty vector"),
        (lambda: p_matrix_bound([1.0, np.inf]), "s entries must be finite"),
        (lambda: p_matrix_bound([1.0, -2.0]), "s entries must be nonnegative"),
        (lambda: lili_slack(np.zeros((2, 2)), [1.0]), "x must be a vector of length 2"),
        (lambda: lili_slack(np.zeros((2, 2)), np.ones((2, 1))),
         "x must be a vector of length 2"),
        (lambda: lili_slack(np.zeros((2, 2)), [1.0, np.nan]), "x entries must be finite"),
        (lambda: lili_slack(np.zeros((2, 2)), [1.0, -0.5]), "x entries must be nonnegative"),
    ])
    def test_messages(self, call, message):
        with pytest.raises(InputRejected) as exc:
            call()
        assert str(exc.value) == message


class TestLemmaChain:
    def test_traceless_chain_and_row_bound(self):
        # canonicalize traceless tuples, rescale the leader to unit norm, then
        # check the chain: key lemma, the induced eta/weights instance, and the
        # orthonormal-extension row bound sum_a (a_alpha)_ij^2 / mu_a^2 <= 1.
        checked = 0
        for k in range(3000):
            stream = RandomStream(sub_seed(111, k))
            n, m = 2 + k % 5, 2 + k % 4
            mats = []
            for a in stream.symmetric_tuple(n, m):
                a = a - np.trace(a) / n * np.eye(n)
                mats.append(a)
            red = canonical_reduce(SymmetricTuple.from_matrices(mats)).reduced
            lead = np.linalg.norm(red.matrices[0])
            if lead < 1e-8:
                continue
            t = SymmetricTuple.from_matrices([a / lead for a in red.matrices])
            rep = key_lemma_slack(t)
            assert rep.slack >= -rep.tol

            eta = np.diag(t.matrices[0]).copy()
            if abs(eta.sum()) > 1e-10 or abs(np.sum(eta * eta) - 1.0) > 1e-10:
                continue
            tail = np.stack(t.matrices[1:])
            r = np.sum(tail * tail, axis=0)
            rep1 = lemma1_slack(eta, np.triu(r, k=1))
            assert rep1.slack >= -1e-9 * (1.0 + rep1.rhs)

            mu_sq = 0.5 * np.array([norm_sq(a) for a in t.matrices[1:]])
            keep = mu_sq > 1e-16
            if np.any(keep):
                iu, ju = np.triu_indices(n, k=1)
                rows = np.sum(tail[keep][:, iu, ju] ** 2 / mu_sq[keep][:, None], axis=0)
                assert np.all(rows <= 1.0 + 1e-10)
            checked += 1
        assert checked > 1000
