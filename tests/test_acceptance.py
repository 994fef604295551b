"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np

from evidential.engine import (
    Mode,
    empirical_tail_fraction,
    evidential_value,
    log_value,
    null_tail_probability,
    threshold_ratio,
    z_c_statistic,
    z_v_statistic,
)
from evidential.geometry import exact_infimum_sq, paper_lower_bound_sq
from evidential.ledger import StudySummary
from evidential.simulate import null_exceedance

from helpers import copying_errors, numeric_infimum_sq, random_study

INF = math.inf


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {tag}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- criterion 1: suspect-corpus reproduction, paper mode -------------------

SUSPECT_POINTS = {
    "1": 3.92, "2": 4.68, "3": 4.26, "5": 3.21, "7": 4.43,
    "9a": 2.10, "9b": 3.95, "10a": 4.94,
}
SUSPECT_INTERVALS = {"4": (2.72, 2.72), "6": (4.95, 9.41), "10b": (10.17, 23.92)}


def test_criterion_1_suspect_corpus(suspect):
    start = time.perf_counter()
    values = {s.id: evidential_value(s, Mode.PAPER) for s in suspect}
    elapsed = time.perf_counter() - start

    failures = []
    for sid, want in SUSPECT_POINTS.items():
        ev = values[sid]
        if ev.lower != ev.upper or abs(ev.lower - want) > 0.02:
            failures.append(f"{sid}: got [{ev.lower:.4f},{ev.upper:.4f}] want {want}")
    for sid, (lo, hi) in SUSPECT_INTERVALS.items():
        ev = values[sid]
        if abs(ev.lower - lo) > 0.02 or abs(ev.upper - hi) > 0.02:
            failures.append(f"{sid}: got [{ev.lower:.4f},{ev.upper:.4f}] want [{lo},{hi}]")
    ev8 = values["8"]
    if abs(ev8.lower - 13.95) > 0.02 or not math.isinf(ev8.upper):
        failures.append(f"8: got [{ev8.lower:.4f},{ev8.upper}] want [13.95, inf]")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report(
        "criterion 1 (suspect corpus, paper mode, +-0.02, <1s)",
        not failures,
        "; ".join(failures) or f"12/12 rows, {elapsed*1e3:.0f} ms",
    )


# --- criterion 2: reference-corpus reproduction, paper mode ------------------

REFERENCE_POINTS = {
    "Hagtvedt-l": 1.40, "Hagtvedt-2": 1.17, "Hunt": 1.0, "Jia": 1.0,
    "Kanten-2": 1.75, "Lerouge-l": 1.0, "Lerouge-3": 1.01, "Lerouge-4": 1.21,
    "Polman": 1.34, "Rook-l": 1.0, "Rook-2": 1.69, "Smith-l": 1.01,
    "Smith-2": 1.26, "Smith-3": 1.0, "Smith-4": 4.04, "Smith-5": 1.63,
    "Smith-6": 1.0, "Smith-7": 1.02,
}
REFERENCE_INTERVALS = {"Lerouge-2": (12.23, 13.01), "Malkoc": (5.26, 5.27)}


def test_criterion_2_reference_corpus(reference):
    start = time.perf_counter()
    values = {s.id: evidential_value(s, Mode.PAPER) for s in reference}
    elapsed = time.perf_counter() - start

    failures = []
    for sid, want in REFERENCE_POINTS.items():
        ev = values[sid]
        if abs(ev.lower - want) > 0.02 or abs(ev.upper - want) > 0.02:
            failures.append(f"{sid}: got [{ev.lower:.4f},{ev.upper:.4f}] want {want}")
    ev = values["Kanten-l"]
    if abs(ev.lower - 1.001) > 0.002:
        failures.append(f"Kanten-l: got {ev.lower:.5f} want 1.001+-0.002")
    for sid, (lo, hi) in REFERENCE_INTERVALS.items():
        ev = values[sid]
        if abs(ev.lower - lo) > 0.02 or abs(ev.upper - hi) > 0.02:
            failures.append(f"{sid}: got [{ev.lower:.4f},{ev.upper:.4f}] want [{lo},{hi}]")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report(
        "criterion 2 (reference corpus, paper mode, +-0.02, <1s)",
        not failures,
        "; ".join(failures) or f"21/21 rows, {elapsed*1e3:.0f} ms",
    )


# --- criterion 3: threshold inversion and published products -----------------

def test_criterion_3_threshold_and_products():
    r = threshold_ratio(2.0)
    p = null_tail_probability(2.0)
    analytic_product = 0.2504 ** 12
    empirical_product = (1.0 / 7.0) ** 12
    checks = {
        "threshold_ratio(2)": abs(r - 0.3191) <= 0.0005,
        "null_tail(2)": abs(p - 0.2504) <= 0.0005,
        "0.2504^12": abs(analytic_product - 6.1e-8) <= 0.05 * 6.1e-8,
        "(1/7)^12": abs(empirical_product - 7.2e-11) <= 0.05 * 7.2e-11,
    }
    bad = [k for k, ok in checks.items() if not ok]
    _report(
        "criterion 3 (threshold inversion and product arithmetic)",
        not bad,
        "; ".join(bad) or f"r={r:.4f}, p={p:.4f}",
    )


# --- criterion 4: optimizer oracle equivalence --------------------------------

def test_criterion_4_optimizer_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst_gap = 0.0
    chain_ok = True
    solver_slack_ok = True
    for _ in range(1000):
        sds = tuple(rng.uniform(0.1, 10.0, 3).tolist())
        numeric = numeric_infimum_sq(sds)
        closed = exact_infimum_sq(sds)
        worst_gap = max(worst_gap, abs(numeric - closed))
        paper = paper_lower_bound_sq(sds)
        s1, s2, s3 = sds
        s0_sq = s1 * s1 + 4 * s2 * s2 + s3 * s3
        # raw solver output may exceed the provable bound only by epsilon
        solver_slack_ok = solver_slack_ok and numeric <= paper + 1e-9
        # the reported (profile) chain must hold to 1e-12
        reported = min(closed, paper)
        chain_ok = chain_ok and (
            reported <= paper + 1e-12 and paper <= s0_sq + 1e-12
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-4 and chain_ok and solver_slack_ok and elapsed < 60.0
    _report(
        "criterion 4 (numeric vs closed form 1e-4; bound chain 1e-12; <60s)",
        ok,
        f"worst |numeric-closed| = {worst_gap:.2e}, chain {'ok' if chain_ok else 'BROKEN'}, "
        f"slack {'ok' if solver_slack_ok else 'BROKEN'}, {elapsed:.1f}s",
    )


# --- criterion 5: property suites ----------------------------------------------

def test_criterion_5_lemma_monotonicity():
    ok = True
    for lam in (0.1, 1.0, 10.0):
        def f(x):
            return math.exp(-lam / x) / math.sqrt(x)

        rising = np.linspace(lam * 1e-3, 2 * lam, 3000)
        falling = np.linspace(2 * lam, 60 * lam, 3000)
        ok = ok and all(f(a) <= f(b) + 1e-15 for a, b in zip(rising, rising[1:]))
        ok = ok and all(f(a) >= f(b) - 1e-15 for a, b in zip(falling, falling[1:]))
        ok = ok and abs(f(2 * lam) - 1 / math.sqrt(2 * math.e * lam)) < 1e-12

    def g(x):
        return math.exp(0.5 * (x - 1.0)) / math.sqrt(x)

    xs = np.linspace(1e-4, 10.0, 5000)
    ok = ok and min(g(x) for x in xs) >= 1.0 - 1e-12 and g(1.0) == 1.0
    _report("criterion 5a (variance-kernel monotonicity and minimum)", ok)


def test_criterion_5_value_floor_and_scale_invariance():
    rng = np.random.default_rng(5150)
    bad = 0
    c = 3.7
    for k in range(10_000):
        study = random_study(rng, ident=str(k))
        ev = evidential_value(study, Mode.PAPER)
        if not (ev.lower >= 1.0 and ev.upper >= ev.lower):
            bad += 1
            continue
        scaled = StudySummary(
            study.id,
            study.n,
            tuple(c * x for x in study.means),
            tuple(c * s for s in study.sds),
        )
        es = evidential_value(scaled, Mode.PAPER)
        if math.isinf(ev.upper) != math.isinf(es.upper):
            bad += 1
            continue
        rel = abs(es.lower - ev.lower) / max(1.0, ev.lower)
        rel_u = (
            0.0
            if math.isinf(ev.upper)
            else abs(es.upper - ev.upper) / max(1.0, ev.upper)
        )
        rel_z = abs(z_v_statistic(scaled) - z_v_statistic(study))
        rel_c = abs(z_c_statistic(scaled) - z_c_statistic(study))
        if max(rel, rel_u) > 1e-9 or max(rel_z, rel_c) > 1e-9:
            bad += 1
    _report(
        "criterion 5b (V >= 1 and scale invariance on 1e4 random studies)",
        bad == 0,
        f"{bad} violations",
    )


def test_criterion_5_case_boundary_continuity():
    rng = np.random.default_rng(5151)
    worst = 0.0
    for _ in range(2000):
        q = math.sqrt(rng.uniform(1e-9, 1.0))
        # V just below the floor (r < q) equals V just above it (r > q)
        a = math.exp(log_value(math.nextafter(q, 0.0), q))
        b = math.exp(log_value(math.nextafter(q, 2.0), q))
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        # V just below r = 1 equals the above-case value 1
        worst = max(worst, abs(math.exp(log_value(math.nextafter(1.0, 0.0), q)) - 1.0))
    _report(
        "criterion 5c (case expressions agree at both boundaries, 1e-10)",
        worst <= 1e-10,
        f"worst relative gap {worst:.2e}",
    )


def test_criterion_5_exact_inside_paper():
    rng = np.random.default_rng(5152)
    bad = 0
    for k in range(10_000):
        study = random_study(rng, ident=str(k))
        paper = evidential_value(study, Mode.PAPER)
        exact = evidential_value(study, Mode.EXACT)
        lower_ok = exact.lower >= paper.lower * (1 - 1e-9) - 1e-9
        if math.isinf(exact.upper):
            upper_ok = math.isinf(paper.upper)
        else:
            upper_ok = exact.upper <= paper.upper * (1 + 1e-9) + 1e-9
        if not (lower_ok and upper_ok and exact.lower == exact.upper):
            bad += 1
    _report(
        "criterion 5d (exact value inside paper interval on 1e4 studies)",
        bad == 0,
        f"{bad} violations",
    )


# --- criterion 6: simulator calibration ------------------------------------------

def test_criterion_6_null_calibration_and_correlations():
    start = time.perf_counter()
    report = null_exceedance(
        n=20, sigma=(1.0, 1.0, 1.0), v_threshold=2.0, reps=100_000, seed=42
    )
    gap = abs(report.exceed_prob - 0.2504)
    slack = max(3 * report.mc_stderr, 0.015)

    n = 100_000
    eps = copying_errors((1.0, 1.0, 1.0), (0.5, 0.5, 0.5), n, seed=4242)
    corr = np.corrcoef(eps)
    bound = 4.0 / math.sqrt(n)
    corr_ok = all(
        abs(corr[i, j] - 0.5) <= bound for i, j in ((0, 1), (0, 2), (1, 2))
    )
    elapsed = time.perf_counter() - start
    ok = gap <= slack and corr_ok and elapsed < 120.0
    _report(
        "criterion 6 (null calibration within documented slack; correlations 4/sqrt(n); <120s)",
        ok,
        f"p_hat={report.exceed_prob:.4f} (gap {gap:.4f}, slack {slack:.4f}), "
        f"corr {'ok' if corr_ok else 'BROKEN'}, {elapsed:.1f}s",
    )


# --- criterion 7: note --------------------------------------------------------------

def test_criterion_7_products_are_arithmetic_only(reference):
    # the reference-corpus share and the two published products are
    # reproduced as arithmetic; no scientific conclusion is asserted
    values = [evidential_value(s, Mode.PAPER) for s in reference]
    share = empirical_tail_fraction(values, 2.0)
    ok = (
        abs(share - 3 / 21) < 1e-12
        and abs((1 / 7) ** 12 - 7.2e-11) <= 0.05 * 7.2e-11
        and abs(0.2504 ** 12 - 6.1e-8) <= 0.05 * 6.1e-8
    )
    _report(
        "criterion 7 (reference share 3/21 and products, arithmetic only)",
        ok,
        f"share={share:.4f}",
    )
