import dataclasses
import decimal
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ineqlab.curvature import (
    SecondFundamentalForm,
    clifford_model,
    curvature_report,
    finite_c,
    fundamental_report,
    traceless,
    veronese_immersion,
    veronese_tuple,
)
from ineqlab.ddvv import (CanonicalForm, SymmetricTuple, canonical_reduce, ddvv_sides,
                          ddvv_slack, extremal_case_a, extremal_case_b, group_act)
from ineqlab.errors import InputRejected
from ineqlab.linalg import commutator, norm_sq
from ineqlab.seeded import RandomStream, sub_seed
from ineqlab.serialize import dumps, parse_sff_json, parse_tuple_json, sff_json, tuple_json


def random_form(stream, n, m, c):
    h = np.stack([stream.symmetric_matrix(n) for _ in range(m)])
    return SecondFundamentalForm.from_array(h, c=c)


class TestAmbientCurvature:
    @pytest.mark.parametrize("c", ["x", "1.5", None, [1.0], [1.0, 2.0], 1j], ids=repr)
    def test_non_number_is_refused(self, c):
        with pytest.raises(InputRejected, match="^ambient curvature c must be finite$"):
            finite_c(c)
        with pytest.raises(InputRejected, match="^ambient curvature c must be finite$"):
            SecondFundamentalForm.from_array(np.zeros((1, 2, 2)), c=c)

    @pytest.mark.parametrize(
        "c", [1, -0.0, np.float32(0.5), np.int64(-3), 1e308, np.array(1.0), np.True_], ids=repr
    )
    def test_real_number_is_its_float(self, c):
        out = finite_c(c)
        assert type(out) is float and out == float(c)


class TestMeanCurvature:
    def test_zero(self):
        form = SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=1.0)
        assert curvature_report(form).mean_curv_sq == 0.0

    def test_umbilic(self):
        h = np.zeros((2, 4, 4))
        h[0] = 1.7 * np.eye(4)
        form = SecondFundamentalForm.from_array(h, c=0.0)
        assert curvature_report(form).mean_curv_sq == pytest.approx(1.7 ** 2, rel=1e-15)

    def test_models_are_minimal(self):
        for form in (clifford_model(1, 2), clifford_model(2, 5), veronese_tuple()):
            assert curvature_report(form).mean_curv_sq == pytest.approx(0.0, abs=1e-28)


class TestTraceless:
    def test_umbilic_killed(self):
        h = np.zeros((1, 3, 3))
        h[0] = -2.0 * np.eye(3)
        out = traceless(SecondFundamentalForm.from_array(h, c=1.0))
        assert np.max(np.abs(out.matrices)) == 0.0

    def test_already_traceless_unchanged(self):
        form = clifford_model(2, 4)
        assert_allclose(traceless(form).matrices, form.matrices, atol=0.0)

    def test_removes_mean_curvature(self):
        form = random_form(RandomStream(501), 4, 3, 1.0)
        assert curvature_report(traceless(form)).mean_curv_sq <= 1e-28


class TestCurvatureReport:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_totally_geodesic(self, c):
        form = SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=c)
        rep = curvature_report(form)
        assert rep.rho == c
        assert rep.rho_perp == 0.0
        assert abs(rep.geometric_slack) <= 1e-12
        assert abs(rep.shape_slack) <= 1e-12

    def test_umbilic_equality(self):
        h = np.zeros((1, 3, 3))
        h[0] = 0.8 * np.eye(3)
        rep = curvature_report(SecondFundamentalForm.from_array(h, c=1.0))
        assert rep.rho == pytest.approx(1.0 + 0.64, rel=1e-14)
        assert abs(rep.geometric_slack) <= 1e-12

    def test_veronese_values(self):
        rep = curvature_report(veronese_tuple())
        assert rep.rho == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.rho_perp == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rep.mean_curv_sq == 0.0
        assert abs(rep.geometric_slack) <= 1e-10

    def test_random_both_slacks(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(511, k))
            n, m = 2 + k % 5, 1 + k % 6
            c = (-1.0, 0.0, 1.0)[k % 3]
            rep = curvature_report(random_form(stream, n, m, c))
            tol = 1e-9 * (1.0 + abs(rep.mean_curv_sq) + abs(c))
            assert rep.geometric_slack >= -tol
            assert rep.shape_slack >= -tol * (n * n * (n - 1))

    def test_slack_ratio_regression(self):
        # numerically pinned: shape slack / geometric slack = n^2 (n - 1)
        for k in range(300):
            stream = RandomStream(sub_seed(521, k))
            n, m = 2 + k % 5, 2 + k % 4
            rep = curvature_report(random_form(stream, n, m, 1.0))
            if abs(rep.geometric_slack) < 1e-9:
                continue
            ratio = rep.shape_slack / rep.geometric_slack
            assert ratio == pytest.approx(n * n * (n - 1.0), rel=1e-9)

    def test_rho_perp_trace_shift_invariant(self):
        for k in range(300):
            stream = RandomStream(sub_seed(531, k))
            form = random_form(stream, 3 + k % 3, 2 + k % 3, 1.0)
            a = curvature_report(form).rho_perp
            b = curvature_report(traceless(form)).rho_perp
            assert abs(a - b) <= 1e-10 * (1.0 + a)

    def test_rejects_n1(self):
        with pytest.raises(InputRejected, match="n < 2"):
            curvature_report(SecondFundamentalForm.from_array(np.zeros((1, 1, 1)), c=1.0))


def _three_pass_report(form):
    """Reference: the reduction in three passes of loops (each slice's
    traceless part, its squared norm, then the commutator pairs left to right)."""
    n, m, h = form.n, form.m, form.matrices
    pairs = n * (n - 1.0)
    traces = h.trace(axis1=1, axis2=2) / n
    h2 = float((traces * traces).sum())
    b = [h[r] - traces[r] * np.eye(n) for r in range(m)]
    b_sq = float(np.sum([np.sum(b[r] * b[r]) for r in range(m)]))
    perp_sum = 0.0
    for r in range(m):
        for s in range(r + 1, m):
            perp_sum += norm_sq(commutator(b[r], b[s]))
    p = float(np.sqrt(2.0 * perp_sum))
    return (form.c + h2 - b_sq / pairs, p / pairs, h2, (b_sq - p) / pairs, n * (b_sq - p))


class TestSinglePassReport:
    def test_bits_equal_the_three_pass_reference(self):
        # exact powers of two move h off the unit scale without rounding it
        k = 0
        for n in range(2, 13):
            for m in range(1, 13):
                h = RandomStream(sub_seed(541, k)).symmetric_tuple(n, m)
                if k % 2:
                    h[k % m] = 0.0  # a zero slice
                k += 1
                for scale in (1.0, 2.0 ** -500, 2.0 ** -60, 2.0 ** 60, 2.0 ** 200):
                    for c in (0.0, 1.0, -0.0, 1e16):
                        form = SecondFundamentalForm.from_array(h * scale, c=c)
                        got = np.array(dataclasses.astuple(curvature_report(form)))
                        want = np.array(_three_pass_report(form))
                        assert got.tobytes() == want.tobytes(), (n, m, scale, c)

    def test_zero_form_at_negative_zero_c_reads_positive_zeros(self):
        # -0.0 + |H|^2 - ||B||^2 / (n(n-1)) is -0.0 + 0.0 - 0.0, which is +0.0
        form = SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=-0.0)
        got = np.array(dataclasses.astuple(curvature_report(form)))
        assert got.tobytes() == np.zeros(5).tobytes()


def _decimal_reduction(h):
    """(geometric slack, rho_perp, (||B||^2 + P) / (n(n-1))) of the float
    slices h, in 80-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=80)):
        n = h.shape[1]
        b = []
        for a in h:
            a = [[decimal.Decimal(float(x)) for x in row] for row in a]
            mean = sum(a[i][i] for i in range(n)) / n
            b.append([[a[i][j] - (mean if i == j else 0) for j in range(n)] for i in range(n)])
        b_sq = sum(x * x for br in b for row in br for x in row)
        perp = decimal.Decimal(0)
        for r in range(len(b)):
            for s in range(r + 1, len(b)):
                for i in range(n):
                    for j in range(n):
                        c = sum(b[r][i][k] * b[s][k][j] - b[s][i][k] * b[r][k][j]
                                for k in range(n))
                        perp += c * c
        p = (2 * perp).sqrt()
        pairs = n * (n - 1)
        return (b_sq - p) / pairs, p / pairs, (b_sq + p) / pairs


class TestReduction:
    """The report is DDVV for the traceless part, so an umbilic shift of h,
    which |H|^2 absorbs, moves neither slack nor rho_perp."""

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e6, 1e8])
    def test_slack_and_rho_perp_agree_with_decimal_under_umbilic_shifts(self, shift):
        u = 2.0 ** -53
        for k in range(40):
            n, m = 3 + k % 3, 2 + k % 3
            h = RandomStream(sub_seed(3901, k)).symmetric_tuple(n, m) + shift * np.eye(n)
            rep = curvature_report(SecondFundamentalForm.from_array(h, c=0.0))
            slack, rho_perp, scale = _decimal_reduction(h)
            bound = decimal.Decimal(16 * u) * scale
            assert abs(decimal.Decimal(rep.geometric_slack) - slack) <= bound, (k, shift)
            assert abs(decimal.Decimal(rep.rho_perp) - rho_perp) <= bound, (k, shift)

    def test_rho_perp_is_the_root_of_ddvv_rhs_for_the_traceless_part(self):
        for k in range(500):
            stream = RandomStream(sub_seed(3911, k))
            n, m = 2 + k % 11, 1 + (k // 11) % 12
            form = random_form(stream, n, m, 1.0)
            want = np.sqrt(ddvv_sides(traceless(form).matrices)[1]) / (n * (n - 1))
            assert curvature_report(form).rho_perp == want, (k, n, m)


class TestFundamentalReport:
    def test_zero(self):
        rep = fundamental_report(SecondFundamentalForm.from_array(np.zeros((2, 3, 3)), c=1.0))
        assert rep.sigma_sq == 0.0
        assert rep.pinch == 0.0

    @pytest.mark.parametrize("r,n", [(1, 2), (2, 4), (1, 3), (3, 5), (2, 5)])
    def test_clifford_boundary(self, r, n):
        form = clifford_model(r, n)
        rep = fundamental_report(form)
        assert abs(rep.sigma_sq - n) <= 1e-12
        assert abs(rep.pinch - n) <= 1e-12
        assert rep.eigenvalues.size == 1

    def test_veronese_boundary(self):
        rep = fundamental_report(veronese_tuple())
        assert_allclose(rep.s, np.diag([2.0 / 3.0, 2.0 / 3.0]), atol=1e-15)
        assert rep.sigma_sq == 4.0 / 3.0
        assert abs(rep.pinch - 2.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gram_matrix_past_the_float_range_rejected(self):
        # with warnings ignored, the overflowing Gram matrix once gave NaN eigenvalues
        h = np.array([[[1e200, 0.0], [0.0, 1e200]], [[0.0, 1e200], [1e200, 0.0]]])
        form = SecondFundamentalForm.from_array(h, c=1.0)
        with pytest.raises(InputRejected, match="input out of the float range"):
            fundamental_report(form)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scales, slices", [
        ((0.9e154, 0.9e154), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),  # ||sigma||^2 past DBL_MAX
        ((5.9e153,) * 3, [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]]),
        ((6.3e153, 6.3e153), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),  # only + lambda_2 overflows
    ], ids=["pair-0.9e154", "triple-7e307", "pair-lambda2"])
    def test_pinch_past_the_float_range_rejected(self, scales, slices):
        # finite Gram entries, but an infinite pinch once read as within the boundary
        h = np.array(scales)[:, None, None] * np.array(slices, dtype=float)
        form = SecondFundamentalForm.from_array(h, c=1.0)
        assert np.isfinite(form.gram()).all()
        with pytest.raises(InputRejected, match=r"^input out of the float range$"):
            fundamental_report(form)

    def test_second_eigenvalue_bound_and_psd(self):
        for k in range(500):
            stream = RandomStream(sub_seed(541, k))
            rep = fundamental_report(random_form(stream, 2 + k % 5, 1 + k % 6, 1.0))
            assert rep.eigenvalues[-1] >= -1e-10 * (1.0 + rep.sigma_sq)
            lam2 = rep.eigenvalues[1] if rep.eigenvalues.size >= 2 else 0.0
            assert lam2 <= 0.5 * rep.sigma_sq + 1e-9 * (1.0 + rep.sigma_sq)
            assert rep.sigma_sq == pytest.approx(float(np.sum(rep.eigenvalues)), rel=1e-10)


def _same_ddvv_bits(t):
    got, want = ddvv_slack(t), ddvv_slack(SymmetricTuple.from_matrices(t.matrices))
    return (np.array([got.lhs, got.rhs, got.slack]).tobytes()
            == np.array([want.lhs, want.rhs, want.slack]).tobytes())


class TestOneStackType:
    """Each constructor of a tuple or a form returns one type on a read-only
    stack; a form is the symmetric tuple of its shape operators plus c, and a
    canonical form is the reduced tuple plus its frame (p, q)."""

    def test_read_only_stacks_and_forms_are_tuples(self):
        stream = RandomStream(sub_seed(5, 0))
        t = SymmetricTuple.from_matrices(stream.symmetric_tuple(3, 2))
        form = random_form(stream, 3, 2, 1.0)
        tuples = [t, group_act(t, stream.orthogonal_matrix(3), stream.orthogonal_matrix(2)),
                  extremal_case_a(3, 0.5), extremal_case_b(3, 0.5),
                  parse_tuple_json(json.loads(dumps(tuple_json(t)))),
                  SecondFundamentalForm.from_matrices(form.matrices),
                  CanonicalForm.from_matrices(t.matrices)]
        forms = [form, traceless(form), veronese_tuple(), clifford_model(2, 4),
                 parse_sff_json(json.loads(dumps(sff_json(form))))]
        for x in tuples:
            assert type(x) is SymmetricTuple and not x.matrices.flags.writeable
        assert [f.name for f in dataclasses.fields(SecondFundamentalForm)] == ["matrices", "c"]
        for f in forms:
            assert type(f) is SecondFundamentalForm and isinstance(f, SymmetricTuple)
            assert not f.matrices.flags.writeable
            assert _same_ddvv_bits(f)

    @pytest.mark.parametrize("n, m", [(3, 2), (2, 4), (4, 1)])
    def test_a_canonical_form_is_its_reduced_tuple(self, n, m):
        t = SymmetricTuple.from_matrices(RandomStream(sub_seed(6, n)).symmetric_tuple(n, m))
        form = canonical_reduce(t)
        assert type(form) is CanonicalForm and isinstance(form, SymmetricTuple)
        assert ([f.name for f in dataclasses.fields(form)]
                == ["matrices", "p", "q", "degenerate"])
        assert not form.matrices.flags.writeable and (form.n, form.m) == (n, m)
        assert _same_ddvv_bits(form)
        plain = SymmetricTuple.from_matrices(form.matrices)
        assert dumps(tuple_json(form)) == dumps(tuple_json(plain))


class TestCliffordModel:
    def test_smallest(self):
        form = clifford_model(1, 2)
        assert_allclose(form.matrices[0], np.diag([1.0, -1.0]), atol=0.0)

    def test_balanced_four(self):
        form = clifford_model(2, 4)
        assert_allclose(form.matrices[0], np.diag([1.0, 1.0, -1.0, -1.0]), atol=0.0)

    def test_trace_free(self):
        for r, n in [(1, 5), (2, 7), (4, 6)]:
            assert abs(np.trace(clifford_model(r, n).matrices[0])) <= 1e-12

    def test_rejects_bad_split(self):
        with pytest.raises(InputRejected):
            clifford_model(0, 3)
        with pytest.raises(InputRejected):
            clifford_model(3, 3)


class TestVeroneseImmersion:
    def test_pole(self):
        u = veronese_immersion([np.sqrt(3.0), 0.0, 0.0])
        assert_allclose(u, [0.0, 0.0, 0.0, np.sqrt(3.0) / 2.0, 0.5], atol=1e-15)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_point(self):
        u = veronese_immersion([1.0, 1.0, 1.0])
        s3 = 1.0 / np.sqrt(3.0)
        assert_allclose(u, [s3, s3, s3, 0.0, 0.0], atol=1e-15)

    def test_unit_image_and_antipodal(self):
        for k in range(2000):
            stream = RandomStream(sub_seed(551, k))
            v = stream.normals(3)
            if np.linalg.norm(v) < 1e-6:
                continue
            p = v / np.linalg.norm(v) * np.sqrt(3.0)
            u = veronese_immersion(p)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
            np.testing.assert_array_equal(u, veronese_immersion(-p))

    def test_rejects_off_sphere(self):
        with pytest.raises(InputRejected, match="sphere"):
            veronese_immersion([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("p,message", [
        ([1.0, 1.0], "^p must be a 3-vector$"),
        ([[1.0, 1.0, 1.0]], "^p must be a 3-vector$"),
        ([1.0, 1.0, 1.0, 0.0], "^p must be a 3-vector$"),
        ([1.0, 1.0, np.nan], "^p entries must be finite$"),
        ([np.inf, 1.0, 1.0], "^p entries must be finite$"),
        ([1.0, -np.inf, 1.0], "^p entries must be finite$"),
    ], ids=["2-vector", "1x3", "4-vector", "nan", "inf", "minus-inf"])
    def test_rejects_malformed_points(self, p, message):
        with pytest.raises(InputRejected, match=message):
            veronese_immersion(p)


class TestFrameInvariance:
    def test_curvature_outputs_invariant(self):
        for k in range(200):
            stream = RandomStream(sub_seed(561, k))
            n, m = 2 + k % 4, 2 + k % 3
            c = (-1.0, 0.0, 1.0)[k % 3]
            form = random_form(stream, n, m, c)
            p = stream.orthogonal_matrix(n)
            q = stream.orthogonal_matrix(m)
            acted = group_act(form, p, q)
            acted_form = SecondFundamentalForm.from_array(np.stack(acted.matrices), c=c)
            a, b = curvature_report(form), curvature_report(acted_form)
            for field in ("rho", "rho_perp", "mean_curv_sq", "geometric_slack", "shape_slack"):
                va, vb = getattr(a, field), getattr(b, field)
                assert vb == pytest.approx(va, rel=1e-9, abs=1e-9)

    def test_veronese_tuple_ddvv_equality(self):
        rep = ddvv_slack(veronese_tuple())
        assert abs(rep.slack) <= 1e-12
