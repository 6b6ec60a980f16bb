import numpy as np
import pytest
from conftest import eij, offdiag2
from numpy.testing import assert_allclose, assert_array_equal

from ineqlab.bw import t_operator
from ineqlab.errors import InputRejected, NumericalFailure
from ineqlab.linalg import (
    SYMMETRY_TOL,
    as_symmetric,
    asymmetry,
    check_symmetric,
    commutator,
    eigh_descending,
    frobenius_inner,
    frobenius_norm,
    normalized,
    pair_indices,
    sum_in_order,
    svd,
    sym_eigen,
    vectorize_sym,
)
from ineqlab.seeded import RandomStream, sub_seeds

S2 = 1.0 / np.sqrt(2.0)


class TestFrobeniusInner:
    def test_identity(self):
        assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0

    def test_diagonal_vs_offdiagonal(self):
        assert frobenius_inner(np.diag([S2, -S2]), offdiag2(S2)) == 0.0

    def test_spike_diagonal_unit_norm(self):
        # n = 3 leading member of the second equality family: 6 lam^2 = 1
        lam = 1.0 / np.sqrt(6.0)
        a = lam * np.diag([2.0, -1.0, -1.0])
        assert abs(6.0 * lam * lam - 1.0) < 1e-15
        assert frobenius_inner(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_in_arguments(self):
        rng = RandomStream(1)
        a, b = rng.gaussian_matrix(4), rng.gaussian_matrix(4)
        assert frobenius_inner(a, b) == frobenius_inner(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InputRejected, match="dimension mismatch"):
            frobenius_inner(np.eye(2), np.eye(3))

    def test_cauchy_schwarz(self):
        rng = RandomStream(7)
        for _ in range(500):
            a, b = rng.gaussian_matrix(5), rng.gaussian_matrix(5)
            lhs = frobenius_inner(a, b) ** 2
            rhs = frobenius_inner(a, a) * frobenius_inner(b, b)
            assert rhs - lhs >= -1e-12 * (1.0 + rhs)

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InputRejected, match="finite"):
            frobenius_inner(bad, np.eye(2))


class TestCommutator:
    def test_identity_commutes(self):
        b = RandomStream(2).gaussian_matrix(3)
        assert_allclose(commutator(np.eye(3), b), np.zeros((3, 3)), atol=0.0)

    def test_two_by_two_pair(self):
        got = commutator(np.diag([S2, -S2]), offdiag2(S2))
        assert_allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_basis_pair(self):
        got = commutator(eij(2, 0, 1), eij(2, 1, 0))
        assert_array_equal(got, np.diag([1.0, -1.0]))
        assert frobenius_inner(got, got) == 2.0

    def test_antisymmetry_exact(self):
        rng = RandomStream(3)
        for _ in range(50):
            a, b = rng.gaussian_matrix(4), rng.gaussian_matrix(4)
            assert_array_equal(commutator(a, b), -commutator(b, a))

    def test_trace_vanishes(self):
        rng = RandomStream(4)
        for _ in range(100):
            a, b = rng.gaussian_matrix(6), rng.gaussian_matrix(6)
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(np.trace(commutator(a, b))) <= 1e-12 * scale


class TestSymEigen:
    def test_already_diagonal(self):
        values, _ = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(values, [3.0, 2.0, 1.0], atol=0.0)

    def test_exchange_matrix(self):
        values, vectors = sym_eigen(offdiag2(1.0))
        assert_allclose(values, [1.0, -1.0], atol=1e-15)
        for k, expect in enumerate([np.array([S2, S2]), np.array([S2, -S2])]):
            v = vectors[:, k]
            assert min(np.max(np.abs(v - expect)), np.max(np.abs(v + expect))) < 1e-12

    def test_veronese_fundamental_matrix(self):
        from ineqlab.curvature import fundamental_report, veronese_tuple

        rep = fundamental_report(veronese_tuple())
        values, _ = sym_eigen(rep.s)
        assert_allclose(values, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InputRejected, match="not symmetric"):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_roundtrip_campaign(self):
        # reconstruction within 1e-9 relative, orthogonality within 1e-10
        rng = RandomStream(5)
        for k in range(10_000):
            n = 2 + k % 11
            a = rng.symmetric_matrix(n)
            values, vectors = sym_eigen(a)
            scale = 1.0 + np.linalg.norm(a)
            assert np.max(np.abs(vectors @ np.diag(values) @ vectors.T - a)) <= 1e-9 * scale
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-10
            assert np.all(np.diff(values) <= 0.0)


class TestEighDescending:
    def test_stack_equals_per_matrix(self):
        # one call over a (5, n, n) stack reproduces sym_eigen bit for bit
        for n in range(1, 13):
            stack = RandomStream(sub_seeds(77 + n, 0, 5)).symmetric_matrix(n)
            values, vectors = eigh_descending(stack)
            assert values.shape == (5, n) and vectors.shape == (5, n, n)
            for a, w, v in zip(stack, values, vectors):
                one_values, one_vectors = sym_eigen(a)
                assert np.array_equal(w, one_values)
                assert np.array_equal(v, one_vectors)

    def test_order_equals_argsort_on_tied_t_spectra(self):
        # T spectra have exact ties (the partner eigenvector, and whole
        # degenerate blocks for diagonal or nilpotent X); reversing eigh's
        # ascending output matches the argsort(w)[::-1] reordering
        rng = RandomStream(91)
        generators = [np.eye(2), eij(2, 0, 1), eij(3, 0, 2), np.diag([1.0, 2.0, 4.0])]
        generators += [np.diag(np.arange(n, dtype=float)) for n in range(2, 9)]
        generators += [rng.gaussian_matrix(n) for n in range(2, 9)]
        tied = 0
        for x in generators:
            t = t_operator(x).matrix
            values, vectors = eigh_descending(t)
            w, v = np.linalg.eigh(0.5 * (t + t.T))
            order = np.argsort(w)[::-1]
            assert np.array_equal(values, w[order])
            assert np.array_equal(vectors, v[:, order])
            tied += bool(np.any(np.diff(w) == 0.0))
        assert tied >= 10

    def test_symmetrizes_without_checking(self):
        values, _ = eigh_descending(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert_allclose(values, [1.0, -1.0], atol=1e-15)

    def test_nonconvergence_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("stub")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailure, match="did not converge: stub"):
            eigh_descending(np.eye(2))

    @pytest.mark.parametrize("a", [
        np.array([[1e308, 1.5e308], [0.5e308, -1e308]]),
        np.array([[[1e308, -0.7e308], [-0.7e308, 1e308]], [[2.0, 0.0], [0.0, 1.0]]]),
    ], ids=["asymmetric", "stack"])
    def test_entries_past_half_dbl_max(self, a):
        # symmetrized as 0.5 a + 0.5 a^T, so a finite a has a finite
        # symmetric part and eigh sees no inf
        values, vectors = eigh_descending(a)
        w, v = np.linalg.eigh(0.5 * a + 0.5 * np.swapaxes(a, -1, -2))
        assert np.isfinite(values).all()
        assert np.array_equal(values, w[..., ::-1])
        assert np.array_equal(vectors, v[..., ::-1])

    def test_huge_diagonal_matches_eigh(self):
        values, vectors = eigh_descending(np.array([[1e308, 0.0], [0.0, 1.0]]))
        assert values.tolist() == [1e308, 1.0]
        assert np.array_equal(np.abs(vectors), np.eye(2))


class TestPrescaledNorm:
    """The norm of a / 2^e from normalized, scaled back by ldexp(root, e)."""

    def test_bits_equal_plain_norm_in_normal_range(self):
        rng = RandomStream(17)
        for k, scale in enumerate([1e-100, 1e-20, 1e-3, 1.0, 3.0, 1e7, 1e100]):
            for n in range(1, 13):
                a = scale * rng.gaussian_matrix(n)
                _, e, root = normalized(a)
                assert np.ldexp(root, e) == frobenius_norm(a), (k, n)
        _, e, root = normalized(np.zeros((3, 3)))
        assert np.ldexp(root, e) == 0.0

    def test_normalized_is_exact(self):
        # a / 2^e has max |entry| in [0.5, 1) and scales back bit for bit,
        # subnormal entries included
        scales = np.array([1e-310, 1e-300, 1.0, 1e300])[:, None, None]
        stack = RandomStream(19).gaussian_matrix(4) * scales
        scaled, e, root = normalized(stack)
        assert_array_equal(np.ldexp(scaled, e[:, None, None]), stack)
        peak = np.max(np.abs(scaled), axis=(1, 2))
        assert np.all((0.5 <= peak) & (peak < 1.0))
        assert_array_equal(root, np.sqrt(np.sum(scaled * scaled, axis=(1, 2))))

    def test_finite_where_the_sum_of_squares_overflows(self):
        _, e, root = normalized(np.diag([1e200, -1e200]))
        assert np.ldexp(root, e) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)

    def test_symmetry_tolerance_at_huge_scale(self):
        # the tolerance 1e-12 (1 + ||a||) is finite, so a 1e190 defect is seen
        assert as_symmetric(np.diag([1e200, -1e200])).shape == (2, 2)
        with pytest.raises(InputRejected, match="not symmetric"):
            as_symmetric(np.array([[1e200, 1e190], [0.0, -1e200]]))

    def test_asymmetry_bits_and_antisymmetric_pair_near_dbl_max(self):
        # the defect is formed on a / 2^e: the same bits as the plain
        # difference in the normal range, and inf with no overflow warning
        # where a_ij - a_ji is over DBL_MAX; the allowed defect keeps its bits
        scales = np.array([1e-100, 1.0, 1e100])[:, None, None]
        stack = RandomStream(18).gaussian_matrix(5) * scales
        defect, allowed = asymmetry(stack)
        assert_array_equal(defect, np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2)))
        _, e, root = normalized(stack)
        assert_array_equal(allowed, SYMMETRY_TOL * (1.0 + np.ldexp(root, e)))
        defect, allowed = asymmetry(np.array([[0.0, 1e308], [-1e308, 0.0]]))
        assert defect == np.inf and np.isfinite(allowed)


class TestCheckSymmetric:
    """The one symmetry check returns the normalized triple it decided on."""

    def test_returns_the_normalized_triple(self):
        stack = RandomStream(23).symmetric_tuple(4, 3) * 1e-5
        for a in (stack[0], stack):
            for got, want in zip(check_symmetric(a, "a"), normalized(a)):
                assert_array_equal(got, want)

    def test_names_the_matrix_or_its_member(self):
        stack = RandomStream(24).symmetric_tuple(3, 4)
        stack[2, 0, 1] += 1e-3
        with pytest.raises(InputRejected, match=r"^p: not symmetric \(max"):
            check_symmetric(stack[2], "p")
        with pytest.raises(InputRejected, match=r"^member 3: not symmetric \(max"):
            check_symmetric(stack, "member")


class TestPairIndices:
    def test_matches_triu_indices_read_only_and_cached(self):
        for k in range(0, 14):
            r, s = pair_indices(k)
            want_r, want_s = np.triu_indices(k, k=1)
            assert_array_equal(r, want_r)
            assert_array_equal(s, want_s)
            assert not r.flags.writeable and not s.flags.writeable
            assert pair_indices(k) is pair_indices(k)
        with pytest.raises(ValueError):
            pair_indices(3)[0][0] = 1


class TestSumInOrder:
    def test_bits_equal_a_loop_from_zero(self):
        regrouped = 0
        scales = 10.0 ** np.arange(-3, 1)[:, None]
        for size in range(0, 30):
            rows = RandomStream(sub_seeds(61, 0, 4)).normals(size) * scales
            got = sum_in_order(rows)
            for row, value in zip(rows, got):
                want = 0.0
                for v in row:
                    want += v
                assert value.tobytes() == np.float64(want).tobytes()
                regrouped += bool(np.sum(row) != want)
        assert regrouped >= 10

    def test_negative_zeros_sum_to_the_loops_zero(self):
        got = sum_in_order(np.full((2, 3), -0.0))
        assert np.signbit(got).tolist() == [False, False]


class TestSvd:
    def test_diagonal_negative(self):
        assert_allclose(svd(np.diag([2.0, -3.0]))[1], [3.0, 2.0], atol=0.0)

    def test_rank_one(self):
        assert_allclose(svd(eij(2, 0, 1))[1], [1.0, 0.0], atol=0.0)

    def test_orthogonal_input(self):
        q = RandomStream(6).orthogonal_matrix(5)
        assert_allclose(svd(q)[1], np.ones(5), atol=1e-12)

    def test_roundtrip_campaign(self):
        rng = RandomStream(8)
        for k in range(10_000):
            n = 2 + k % 11
            x = rng.gaussian_matrix(n)
            q1, lam, q2 = svd(x)
            scale = 1.0 + np.linalg.norm(x)
            assert np.max(np.abs(q1 @ np.diag(lam) @ q2 - x)) <= 1e-9 * scale
            assert np.all(lam >= 0.0)
            assert np.all(np.diff(lam) <= 0.0)
            # singular values are the square roots of the spectrum of X^T X
            gram_vals = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
            assert_allclose(lam ** 2, np.maximum(gram_vals, 0.0), atol=1e-9 * scale ** 2)

    def test_nonconvergence_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("stub")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalFailure, match="^svd did not converge: stub$"):
            svd(np.eye(2))


class TestVectorizeSym:
    def test_zero(self):
        assert_array_equal(vectorize_sym(np.zeros((3, 3))), np.zeros(6))

    def test_identity_two(self):
        assert_allclose(vectorize_sym(np.eye(2)), [0.0, S2, S2], atol=0.0)
        assert np.sum(vectorize_sym(np.eye(2)) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_offdiag_slot(self):
        v = vectorize_sym(offdiag2(S2))
        assert_allclose(v, [S2, 0.0, 0.0], atol=0.0)
        assert np.sum(v * v) == pytest.approx(0.5, abs=1e-15)

    def test_half_norm_property(self):
        rng = RandomStream(9)
        for _ in range(300):
            a = rng.symmetric_matrix(6)
            lhs = float(np.sum(vectorize_sym(a) ** 2))
            rhs = 0.5 * frobenius_inner(a, a)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InputRejected, match="not symmetric"):
            vectorize_sym(eij(3, 0, 1))
