"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or in
captured output).  Seeds are fixed so the whole suite is reproducible.
"""

import json

import numpy as np

from ineqlab.bw import bw_slack, small_s1_check, svd_reduction, t_spectrum
from ineqlab.campaigns import run_ddvv_campaign, run_search_campaign
from ineqlab.cli import main
from ineqlab.copositive import copositive_oracle, copositive_property_k
from ineqlab.curvature import (
    SecondFundamentalForm,
    clifford_model,
    curvature_report,
    fundamental_report,
    veronese_immersion,
    veronese_tuple,
)
from ineqlab.ddvv import (
    SymmetricTuple,
    ddvv_slack,
    extremal_case_a,
    extremal_case_b,
    group_act,
    key_lemma_slack,
    lemma1_slack,
    lili_slack,
    sigma_matrix,
)
from ineqlab.linalg import commutator, frobenius_norm, norm_sq
from ineqlab.seeded import RandomStream, sub_seed

S2 = 1.0 / np.sqrt(2.0)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_ddvv_campaign():
    """10^5 seeded random tuples over all (n, m) in {2..6}^2: no violations."""
    trials_per_combo = 4000  # 25 combos x 4000 = 1e5
    violations = 0
    worst = np.inf
    for n in range(2, 7):
        for m in range(2, 7):
            summary = run_ddvv_campaign(seed=sub_seed(10_001, 100 * n + m),
                                        trials=trials_per_combo, n=n, m=m)
            violations += summary.violations
            worst = min(worst, summary.min_slack)
    _verdict("criterion 1 (ddvv campaign)", violations == 0,
             f"100000 trials, violations={violations}, min slack={worst:.3e}")


def test_criterion_2_equality_witnesses():
    """Equality configurations reach slack 0 within 1e-12."""
    checks = []
    rep = ddvv_slack(extremal_case_a(2, 1.0))
    checks.append(abs(rep.slack) <= 1e-12)
    rep = ddvv_slack(extremal_case_a(5, 1.0))
    checks.append(abs(rep.slack) <= 1e-12)
    for n, c in [(2, 1.0), (3, 2.0), (4, -0.5)]:
        checks.append(abs(key_lemma_slack(extremal_case_a(n, c)).slack) <= 1e-12)
    for n, mu in [(2, 0.7), (3, S2), (4, 0.3), (6, 1.2)]:
        checks.append(abs(key_lemma_slack(extremal_case_b(n, mu)).slack) <= 1e-12)

    for n in (3, 4, 6):
        eta = np.zeros(n)
        eta[0], eta[-1] = S2, -S2
        r = np.zeros((n, n))
        r[0, n - 1] = 1.3
        checks.append(abs(lemma1_slack(eta, r).slack) <= 1e-12)
        eta = np.full(n, -1.0 / np.sqrt(n * (n - 1.0)))
        eta[0] = np.sqrt((n - 1.0) / n)
        r = np.zeros((n, n))
        r[0, 1:] = 0.8
        checks.append(abs(lemma1_slack(eta, r).slack) <= 1e-12)
    _verdict("criterion 2 (equality witnesses)", all(checks),
             f"{len(checks)} witnesses at |slack| <= 1e-12")


def test_criterion_3_bw_spectral_campaign():
    """10^4 random generators: lambda_max <= 2 + 1e-9 and top-two multiplicity."""
    bound_bad = 0
    gap_bad = 0
    for k in range(10_000):
        stream = RandomStream(sub_seed(10_003, k))
        n = 2 + k % 7
        values = t_spectrum(stream.gaussian_matrix(n))
        if values[0] > 2.0 + 1e-9:
            bound_bad += 1
        if values[0] > 1e-6 and (values[0] - values[1]) / values[0] > 1e-8:
            gap_bad += 1
    _verdict("criterion 3 (spectral campaign)", bound_bad == 0 and gap_bad == 0,
             f"10000 generators, bound violations={bound_bad}, multiplicity failures={gap_bad}")


def test_criterion_4_bw_sharpness():
    """Alternating search attains 2 within 1e-6 for n in 2..6; sharp pair exact."""
    ok = True
    details = []
    for n in range(2, 7):
        results = list(run_search_campaign(seed=sub_seed(10_004, n), seeds=100, n=n,
                                           max_iters=300))
        best = max(r.best_ratio for r in results)
        ok &= 2.0 - 1e-6 <= best <= 2.0 + 1e-9
        ok &= all(r.best_ratio <= 2.0 + 1e-9 for r in results)
        details.append(f"n={n}:{best:.9f}")
    x = np.zeros((2, 2)); x[0, 1] = 1.0
    y = np.zeros((2, 2)); y[1, 0] = 1.0
    rep = bw_slack(x, y)
    ratio = rep.lhs / (norm_sq(x) * norm_sq(y))
    ok &= abs(ratio - 2.0) <= 1e-12
    _verdict("criterion 4 (bw sharpness)", ok,
             "best ratios " + " ".join(details) + f", sharp pair ratio={ratio}")


def test_criterion_5_svd_reduction_identity():
    """Reduction identity on 10^4 pairs; small-s1 bound on filtered instances."""
    id_bad = 0
    s1_bad = 0
    filtered = 0
    for k in range(10_000):
        stream = RandomStream(sub_seed(10_005, k))
        n = 2 + k % 7
        x = stream.gaussian_matrix(n)
        y = stream.gaussian_matrix(n)
        lam, b, c = svd_reduction(x, y)
        lhs = frobenius_norm(commutator(x, y))
        rhs = frobenius_norm(np.diag(lam) @ b - c @ np.diag(lam))
        if abs(lhs - rhs) > 1e-9 * (1.0 + lhs):
            id_bad += 1
        if lam[0] ** 2 / np.sum(lam ** 2) <= 0.5:
            filtered += 1
            if small_s1_check(x, y).slack < -1e-9 * (1.0 + 2.0 * norm_sq(y)):
                s1_bad += 1
    _verdict("criterion 5 (svd reduction)", id_bad == 0 and s1_bad == 0,
             f"identity failures={id_bad}, small-s1 violations={s1_bad} "
             f"on {filtered} filtered instances")


def test_criterion_6_copositivity_cross_validation():
    """Property-K agrees with the resolution-40 simplex oracle, 2 x 1000 matrices."""
    disagreements = []
    for dim, base in ((3, 10_006), (4, 10_007)):
        for k in range(1000):
            stream = RandomStream(sub_seed(base, k))
            p = stream.symmetric_matrix(dim)
            a = copositive_property_k(p).copositive
            b = copositive_oracle(p, 40).copositive
            if a != b:
                disagreements.append((dim, k))
    _verdict("criterion 6 (copositivity cross-validation)", not disagreements,
             f"2000 matrices, disagreements={disagreements[:5]}")


def test_criterion_7_lili_campaign():
    """Li-Li and the quadratic sum bound on 10^4 (tuple, x) draws."""
    lili_bad = 0
    quad_bad = 0
    for k in range(10_000):
        stream = RandomStream(sub_seed(10_008, k))
        n, m = 2 + k % 4, 2 + k % 5
        mats = [a / frobenius_norm(a) for a in stream.symmetric_tuple(n, m)]
        sigma = sigma_matrix(SymmetricTuple.from_matrices(mats))
        x = stream.uniforms(m)
        rep = lili_slack(sigma, x)
        if rep.slack < -rep.tol:
            lili_bad += 1
        quad = float(x @ sigma @ x)
        total = float(np.sum(x)) ** 2
        if quad > total + 1e-9 * (1.0 + total):
            quad_bad += 1
    _verdict("criterion 7 (li-li campaign)", lili_bad == 0 and quad_bad == 0,
             f"10000 draws, li-li violations={lili_bad}, quadratic-bound violations={quad_bad}")


def test_criterion_8_geometry():
    """Model geometry: geodesic/umbilic equality, Veronese and Clifford values,
    unit immersion images."""
    ok = True
    details = []

    for c in (-1.0, 0.0, 1.0):
        rep = curvature_report(SecondFundamentalForm.from_array(np.zeros((3, 4, 4)), c=c))
        ok &= abs(rep.geometric_slack) <= 1e-12
    h = np.zeros((2, 3, 3))
    h[0] = -1.3 * np.eye(3)
    rep = curvature_report(SecondFundamentalForm.from_array(h, c=1.0))
    ok &= abs(rep.geometric_slack) <= 1e-12
    details.append(f"geodesic/umbilic slack {rep.geometric_slack:.1e}")

    vrep = curvature_report(veronese_tuple())
    vfund = fundamental_report(veronese_tuple())
    ok &= abs(vrep.rho - 1.0 / 3.0) <= 1e-12
    ok &= abs(vrep.rho_perp - 2.0 / 3.0) <= 1e-12
    ok &= abs(vrep.geometric_slack) <= 1e-10
    ok &= vfund.sigma_sq == 4.0 / 3.0
    details.append(f"veronese rho={vrep.rho:.12f} rho_perp={vrep.rho_perp:.12f} "
                   f"sigma_sq={vfund.sigma_sq}")

    for r, n in [(1, 2), (2, 4), (1, 3), (3, 5), (2, 6)]:
        frep = fundamental_report(clifford_model(r, n))
        ok &= abs(frep.sigma_sq - n) <= 1e-12
        ok &= abs(frep.pinch - n) <= 1e-12
    details.append("clifford pinch boundary exact")

    bad_norm = 0
    for k in range(10_000):
        stream = RandomStream(sub_seed(10_009, k))
        v = stream.normals(3)
        nrm = np.linalg.norm(v)
        if nrm < 1e-6:
            continue
        u = veronese_immersion(v / nrm * np.sqrt(3.0))
        if abs(np.linalg.norm(u) - 1.0) > 1e-10:
            bad_norm += 1
    ok &= bad_norm == 0
    details.append(f"immersion unit-norm failures={bad_norm}/10000")
    _verdict("criterion 8 (geometry)", ok, "; ".join(details))


def test_criterion_9_invariance():
    """ddvv sides and curvature outputs invariant under 10^3 group actions."""
    bad = 0
    for k in range(1000):
        stream = RandomStream(sub_seed(10_010, k))
        n, m = 2 + k % 5, 2 + k % 5
        mats = stream.symmetric_tuple(n, m)
        t = SymmetricTuple.from_matrices(mats)
        p = stream.orthogonal_matrix(n)
        q = stream.orthogonal_matrix(m)
        acted = group_act(t, p, q)

        before, after = ddvv_slack(t), ddvv_slack(acted)
        if abs(after.lhs - before.lhs) > 1e-9 * (1.0 + abs(before.lhs)):
            bad += 1
        if abs(after.rhs - before.rhs) > 1e-9 * (1.0 + abs(before.rhs)):
            bad += 1

        c = (-1.0, 0.0, 1.0)[k % 3]
        fa = curvature_report(SecondFundamentalForm.from_array(np.stack(mats), c=c))
        fb = curvature_report(
            SecondFundamentalForm.from_array(np.stack(acted.matrices), c=c)
        )
        for field in ("rho", "rho_perp", "mean_curv_sq", "geometric_slack"):
            va, vb = getattr(fa, field), getattr(fb, field)
            if abs(vb - va) > 1e-9 * (1.0 + abs(va)):
                bad += 1
    _verdict("criterion 9 (invariance)", bad == 0,
             f"1000 actions, mismatches={bad}")


def test_criterion_10_determinism(capsys):
    """Identical campaign invocations emit byte-identical JSON."""
    ok = True
    for argv in (
        ["ddvv-verify", "--seed", "77", "--trials", "400", "--n", "4", "--m", "4",
         "--format", "json"],
        ["bw-verify", "--seed", "78", "--trials", "150", "--n", "5", "--format", "json"],
        ["bw-search", "--seed", "79", "--trials", "4", "--n", "4", "--max-iters", "80",
         "--format", "json"],
    ):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        ok &= first.encode() == second.encode() and bool(first.strip())
        json.loads(first)  # well-formed
    with capsys.disabled():
        _verdict("criterion 10 (determinism)", ok, "3 campaign commands byte-identical")
