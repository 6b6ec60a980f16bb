import inspect
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ineqlab import copositive
from ineqlab.copositive import (
    SIGN_ZERO_TOL,
    CopositivityVerdict,
    copositive_oracle,
    copositive_property_k,
)
from ineqlab.errors import InputRejected
from ineqlab.linalg import as_symmetric, eigh_descending, frobenius_norm
from ineqlab.serialize import read_matrix_file
from ineqlab.seeded import RandomStream, sub_seed

DATA = Path(__file__).parent / "data"


def violates(p, subsets, neg_eps):
    """Whether the principal submatrices on `subsets` hold a violation."""
    pm = as_symmetric(p, "p")
    stack = np.array([pm[np.ix_(s, s)] for s in subsets])
    values, vectors = eigh_descending(stack)
    mixed = np.any(vectors > SIGN_ZERO_TOL, axis=1) & np.any(vectors < -SIGN_ZERO_TOL, axis=1)
    return bool(np.any((values < -neg_eps) & ~mixed))


def bottom_up_scan(p):
    """The subsets of each stack the property-K scan solves, for a p with
    no PSD-plus-nonnegative certificate, from first principles: p itself,
    returning when its own eigvalsh is >= -neg_eps/2, then every subset of
    each size from 1 up, stopping at the first size with a violation."""
    m = p.shape[0]
    neg_eps = 1e-10 * (1.0 + frobenius_norm(p))
    full = tuple(range(m))
    stacks = [[full]]
    if np.linalg.eigvalsh(0.5 * (p + p.T))[0] >= -0.5 * neg_eps:
        return stacks
    for size in range(1, m):
        subsets = list(itertools.combinations(range(m), size))
        stacks.append(subsets)
        if violates(p, subsets, neg_eps):
            break
    return stacks


def full_scan(p):
    """Property K over every principal submatrix, p last."""
    pm = as_symmetric(p, "p")
    m = pm.shape[0]
    neg_eps = 1e-10 * (1.0 + frobenius_norm(pm))
    for size in range(1, m + 1):
        subsets = np.array(list(itertools.combinations(range(m), size)))
        values, vectors = eigh_descending(pm[subsets[:, :, None], subsets[:, None, :]])
        mixed = np.any(vectors > SIGN_ZERO_TOL, axis=1) & np.any(vectors < -SIGN_ZERO_TOL, axis=1)
        bad = np.flatnonzero((values < -neg_eps) & ~mixed)
        if bad.size:
            row, k = divmod(int(bad[0]), size)
            certificate = np.zeros(m)
            certificate[subsets[row]] = np.abs(vectors[row, :, k])
            verified = float(certificate @ pm @ certificate) < 0.0
            return CopositivityVerdict(False, certificate if verified else None,
                                       tuple(subsets[row].tolist()))
    return CopositivityVerdict(True)


def equivalence_inputs():
    """(family, p) over m = 1..12: PSD plus nonnegative, a planted negative
    pair, Gaussian, rank-deficient g g^T, a PSD matrix with a positive null
    vector shifted down by a fraction of neg_eps (on either side of the
    neg_eps/2 margin and of neg_eps), the tied spectra J - I, -I, 0 and
    (k - 1/2) I - J, and at m = 7 and 12 D - J, which is PSD on a subset S
    iff sum_S 1/d_i <= 1."""
    for m in range(1, 13):
        stream = RandomStream(sub_seed(6001, m))
        for _ in range(12 if m <= 8 else 4):
            g = stream.gaussian_matrix(m)
            p = g @ g.T + np.abs(stream.symmetric_matrix(m))
            yield "psd+nonneg", p
            q = p.copy()
            i = int(stream.uniforms(1)[0] * m)
            j = (i + 1) % m
            q[i, j] = q[j, i] = -np.sqrt(p[i, i] * p[j, j]) - 0.5
            yield "planted", q
            yield "gaussian", stream.symmetric_matrix(m)
        for rank in range(0, m, 3):
            g = stream.gaussian_matrix(m)[:, :rank]
            yield "rank-deficient", g @ g.T
        u = 1.0 + stream.uniforms(m)
        b = stream.gaussian_matrix(m)
        b -= np.outer(u, u @ b) / (u @ u)
        gram = b @ b.T
        for frac in (0.25, 0.49, 0.51, 0.99, 1.01, 1.5):
            shift = frac * 1e-10 * (1.0 + frobenius_norm(gram))
            yield "shifted", gram - shift * np.eye(m)
        ones = np.ones((m, m))
        yield "J - I", ones - np.eye(m)
        yield "-I", -np.eye(m)
        yield "0", np.zeros((m, m))
        if m in (7, 12):
            u = RandomStream(sub_seed(335, 366)).uniforms(m)
            yield "D - J", np.diag(1.0 / (0.1 + 0.3 * u)) - ones
        for k in sorted({1, 2, m // 2, m} if m > 8 else range(1, m + 1)):
            yield "(k - 1/2) I - J", (k - 0.5) * np.eye(m) - ones


class TestPropertyK:
    def test_indefinite_but_copositive(self):
        # eigenvalue -1 comes with the mixed-sign eigenvector (1, -1)
        verdict = copositive_property_k([[1.0, 2.0], [2.0, 1.0]])
        assert verdict.copositive
        assert verdict.certificate is None

    def test_negative_offdiagonal(self):
        verdict = copositive_property_k([[0.0, -1.0], [-1.0, 0.0]])
        assert not verdict.copositive
        assert verdict.failing_submatrix == (0, 1)
        x = verdict.certificate
        assert np.all(x >= 0.0)
        assert float(x @ np.array([[0.0, -1.0], [-1.0, 0.0]]) @ x) < 0.0

    def test_negative_diagonal_detected_by_singleton(self):
        verdict = copositive_property_k(np.diag([1.0, -0.5, 2.0]))
        assert not verdict.copositive
        assert verdict.failing_submatrix == (1,)

    def test_positive_semidefinite(self):
        rng = RandomStream(301)
        for _ in range(50):
            g = rng.gaussian_matrix(4)
            assert copositive_property_k(g @ g.T).copositive

    def test_accepted_input_is_not_revalidated(self):
        # p passes as_symmetric (defect 1e-8 <= 1e-12 * (1 + 1e6)); its
        # submatrix on {1, 2} alone would not, and must not be checked again
        p = np.diag([1e6, 1.0, 1.0])
        p[2, 1] = 1e-8
        verdict = copositive_property_k(p)
        assert verdict.copositive
        assert verdict.certificate is None

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_one_kernel_call_per_subset_size(self, monkeypatch, m):
        stacks, singles = [], []
        kernel = copositive.eigh_descending

        def record(a):
            # the scan solves (count, s, s) stacks; the certificate single matrices
            (stacks if a.ndim == 3 else singles).append(a)
            return kernel(a)

        monkeypatch.setattr(copositive, "eigh_descending", record)

        def solved_sizes(p):
            stacks.clear()
            singles.clear()
            verdict = copositive_property_k(p)
            sizes = [a.shape[-1] for a in stacks]
            assert len(sizes) == len(set(sizes))  # at most one kernel call per size
            return verdict, sizes

        # PSD plus nonnegative: p itself or its certificate decides at once
        g = RandomStream(sub_seed(333, m)).gaussian_matrix(m)
        verdict, sizes = solved_sizes(g @ g.T + np.abs(g + g.T))
        assert verdict.copositive
        assert sizes == [m]
        assert len(singles) <= 1
        # 2.5 I - J: PSD for m < 3, else no certificate and the exact stacks
        p = 2.5 * np.eye(m) - np.ones((m, m))
        verdict, sizes = solved_sizes(p)
        assert verdict.copositive is (m < 3)
        assert len(singles) == (1 if m >= 3 else 0)
        want = bottom_up_scan(p)
        assert len(stacks) == len(want)
        for got, subsets in zip(stacks, want):
            assert np.array_equal(got, np.array([p[np.ix_(s, s)] for s in subsets]))
        if m >= 3:
            assert verdict.failing_submatrix == (0, 1, 2)

    def test_equals_full_scan(self):
        families = {}
        for family, p in equivalence_inputs():
            got, want = copositive_property_k(p), full_scan(p)
            assert (got.copositive, got.failing_submatrix) == \
                (want.copositive, want.failing_submatrix), family
            assert (got.certificate is None) == (want.certificate is None), family
            if want.certificate is not None:
                assert np.array_equal(got.certificate, want.certificate), family
            families.setdefault(family, []).append(want.copositive)
        assert sum(map(len, families.values())) >= 500
        assert all(families["psd+nonneg"]) and not any(families["planted"])
        for family in ("gaussian", "shifted"):
            assert any(families[family]) and not all(families[family])

    def test_psd_plus_nonnegative_certificate(self):
        def certified(p):
            pm = as_symmetric(p, "p")
            values, vectors = eigh_descending(pm)
            norm = frobenius_norm(pm)
            return copositive._psd_plus_nonnegative(
                pm, values, vectors, copositive.SPN_SHIFT * norm, 0.5e-10 * (1.0 + norm))

        # g g^T + |g + g^T| with a negative eigenvalue: certified, decided at once
        g = RandomStream(sub_seed(334, 12)).gaussian_matrix(12)
        p = g @ g.T + np.abs(g + g.T)
        assert np.linalg.eigvalsh(p)[0] < 0.0
        assert certified(p)
        assert copositive_property_k(p) == CopositivityVerdict(True)
        # the Horn matrix is copositive but not PSD plus nonnegative: the scan decides
        horn = np.array([[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
                         [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]], dtype=float)
        assert not certified(horn)
        assert copositive_property_k(horn) == full_scan(horn) == CopositivityVerdict(True)
        # a matrix that is not copositive has no such decomposition
        q = p.copy()
        q[0, 1] = q[1, 0] = -np.sqrt(p[0, 0] * p[1, 1]) - 0.5
        assert not certified(q)
        assert copositive_property_k(q).failing_submatrix == (0, 1)

    def test_one_solve_alive_at_a_time(self):
        # J - I is neither PSD nor certified and holds no violation, so all
        # 2^16 - 1 submatrices are solved; freeing each size before the
        # next stack keeps the peak near two stacks
        p = np.ones((16, 16)) - np.eye(16)
        tracemalloc.start()
        try:
            assert copositive_property_k(p).copositive
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_huge_entries(self):
        # ||p||^2 overflows; the prescaled norm keeps neg_eps finite
        p = np.diag([1e200, -1e200])
        verdict = copositive_property_k(p)
        assert not verdict.copositive
        assert verdict.failing_submatrix == (1,)
        assert np.array_equal(verdict.certificate, [0.0, 1.0])
        oracle = copositive_oracle(p, 4)
        assert not oracle.copositive
        assert np.array_equal(oracle.certificate, [0.0, 1.0])

    def test_dimension_cap(self):
        with pytest.raises(InputRejected, match="oracle"):
            copositive_property_k(np.eye(17))


class TestOracle:
    def test_negative_offdiagonal_minimizer(self):
        p = np.array([[0.0, -1.0], [-1.0, 0.0]])
        verdict = copositive_oracle(p, 10)
        assert not verdict.copositive
        assert_allclose(verdict.certificate, [0.5, 0.5], atol=1e-9)
        assert float(verdict.certificate @ p @ verdict.certificate) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_identity(self):
        assert copositive_oracle(np.eye(3), 8).copositive

    def test_rejects_small_resolution(self):
        with pytest.raises(InputRejected, match="resolution"):
            copositive_oracle(np.eye(2), 1)

    def test_refinement_beats_coarse_lattice(self):
        # simplex minimum -5.7e-3 at x = (0.5627, 0.4373); every point of the
        # resolution-5 lattice is positive, so only the gradient polish can
        # certify non-copositivity
        p = np.array([[1.0, -1.3], [-1.3, 1.66]])
        lattice = np.stack([np.linspace(0, 1, 6), np.linspace(1, 0, 6)], axis=1)
        assert np.all(np.einsum("ki,ij,kj->k", lattice, p, lattice) > 0.0)
        verdict = copositive_oracle(p, 5)
        assert not verdict.copositive
        value = float(verdict.certificate @ p @ verdict.certificate)
        assert value < -1e-3

    def test_cross_validation_small(self):
        for k in range(300):
            stream = RandomStream(sub_seed(311, k))
            p = stream.symmetric_matrix(3)
            assert copositive_property_k(p).copositive == copositive_oracle(p, 24).copositive


    @pytest.mark.parametrize("exponent", [-6, 0, 6, 150, 300])
    def test_certificates_verify(self, exponent):
        # every "not copositive" verdict carries a point of the unit simplex
        # where the quadratic form is negative, at any scale
        found = 0
        for k in range(120):
            stream = RandomStream(sub_seed(314, k))
            p = stream.symmetric_matrix(2 + k % 4) * 10.0**exponent
            verdict = copositive_oracle(p, 40)
            if verdict.copositive:
                continue
            x = verdict.certificate
            assert np.all(x >= 0.0), k
            assert abs(float(np.sum(x)) - 1.0) <= 1e-12, k
            assert float(x @ p @ x) < 0.0, k
            found += 1
        assert found > 60

    def test_agrees_with_property_k_on_golden_inputs(self, tmp_path):
        # every distinct input of golden_copositive_cli.json at m <= 7
        cases = json.loads((DATA / "golden_copositive_cli.json").read_text())
        inputs = {(case.split()[0].rsplit(".", 1)[1], want["input"])
                  for case, want in cases.items()}
        checked = 0
        for suffix, text in sorted(inputs):
            path = tmp_path / f"p.{suffix}"
            path.write_text(text)
            p = read_matrix_file(str(path))
            if p.shape[0] <= 7:
                assert copositive_oracle(p, 40).copositive == \
                    copositive_property_k(p).copositive, text
                checked += 1
        assert checked == 115

    def test_finest_resolution_ends_the_partition(self):
        # P = v v^T, v = (1, -sqrt 2), is PSD with a zero inside the simplex;
        # no test decides the simplices around it, so the partition stops
        # there at the resolution's lattice spacing and finds no violation
        source, first = inspect.getsourcelines(copositive_oracle)
        stop = first + 1 + next(k for k, text in enumerate(source) if "<= finest" in text)
        lines = []

        def trace(frame, event, arg):
            if event == "line" and frame.f_code is copositive_oracle.__code__:
                lines.append(frame.f_lineno)
            return trace

        root2 = math.sqrt(2.0)
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            verdict = copositive_oracle(np.array([[1.0, -root2], [-root2, 2.0]]), 40)
        finally:
            sys.settrace(previous)
        assert verdict == CopositivityVerdict(True)
        assert stop in lines

    def test_m_squared_over_budget_refused_unbuilt(self, monkeypatch):
        monkeypatch.setattr(copositive, "ORACLE_BUDGET", 9)
        assert copositive_oracle(np.eye(3), 40).copositive  # one simplex x 3^2 fits
        monkeypatch.setattr(copositive, "ORACLE_BUDGET", 8)
        monkeypatch.setattr(np, "eye", lambda m: pytest.fail("a simplex was built"))
        with pytest.raises(InputRejected, match="over the budget of 8; lower the resolution"):
            copositive_oracle(np.ones((3, 3)), 40)
