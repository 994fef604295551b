import contextlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from evidential.engine import (
    Case,
    EvidentialValue,
    Mode,
    combine,
    empirical_tail_fraction,
    evidential_value,
    log_value,
    null_tail_probability,
    threshold_ratio,
    z_c_statistic,
    z_v_statistic,
)
from evidential import ledger
from evidential.cli import main, render_value
from evidential.geometry import contrast, variance_profile
from evidential.ledger import LedgerError, StudySummary

from helpers import plugin_density, random_study

INF = math.inf


# --- plug-in density ------------------------------------------------------

def test_plugin_density_at_zero_contrast():
    assert plugin_density(0.0, 20, 1.0) == pytest.approx(1.7841241161527712, abs=1e-12)


def test_plugin_density_row1():
    assert plugin_density(0.07, 20, 4.0001) == pytest.approx(
        0.8811902129756357, abs=1e-12
    )


def test_plugin_density_normalizes():
    total, _ = quad(lambda z: plugin_density(z, 20, 4.0), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_plugin_density_domain_errors():
    with pytest.raises(ValueError):
        plugin_density(0.0, 20, 0.0)
    with pytest.raises(ValueError):
        plugin_density(0.0, 0, 1.0)


# --- evidential value: published rows ------------------------------------

def test_row1_paper_point(by_id):
    ev = evidential_value(by_id["1"], Mode.PAPER)
    assert ev.case is Case.MIDDLE and ev.lower == ev.upper
    assert ev.lower == pytest.approx(3.92, abs=0.02)


def test_row6_paper_interval(by_id):
    ev = evidential_value(by_id["6"], Mode.PAPER)
    assert ev.case is Case.BELOW and ev.lower != ev.upper
    assert ev.lower == pytest.approx(4.95, abs=0.02)
    assert ev.upper == pytest.approx(9.41, abs=0.02)


def test_row8_paper_unbounded(by_id):
    ev = evidential_value(by_id["8"], Mode.PAPER)
    assert ev.case is Case.BELOW
    assert ev.lower == pytest.approx(13.949242986793495, abs=1e-9)
    assert ev.upper == INF


def test_hunt_is_above_case(by_id):
    ev = evidential_value(by_id["Hunt"], Mode.PAPER)
    assert ev.case is Case.ABOVE
    assert ev.lower == ev.upper == 1.0


def test_kanten_l_value(by_id):
    ev = evidential_value(by_id["Kanten-l"], Mode.PAPER)
    assert ev.lower == pytest.approx(1.001, abs=0.002)


def test_row6_exact_point(by_id):
    # the exact floor coincides with the proxy here, so the exact value
    # is the proxy-floor density ratio: 4.947601892391487
    ev = evidential_value(by_id["6"], Mode.EXACT)
    assert ev.lower == ev.upper and ev.case is Case.BELOW
    assert ev.lower == pytest.approx(4.9476018923914870, abs=2e-6)
    assert ev.lower == pytest.approx(4.95, abs=0.02)


def test_equal_means_unit_sds_unbounded_in_both_modes():
    study = StudySummary("flat", 20, (2.5, 2.5, 2.5), (1.0, 1.0, 1.0))
    for mode in (Mode.PAPER, Mode.EXACT):
        ev = evidential_value(study, mode)
        assert ev.case is Case.BELOW
        assert ev.lower == INF and ev.upper == INF


def test_mode_accepts_plain_strings(by_id):
    assert evidential_value(by_id["1"], "paper") == evidential_value(
        by_id["1"], Mode.PAPER
    )
    with pytest.raises(ValueError):
        evidential_value(by_id["1"], "bogus")


def test_invalid_study_is_rejected():
    # an invalid study cannot reach evidential_value: making it raises
    with pytest.raises(LedgerError, match="n must be positive"):
        StudySummary("b", -1, (1, 2, 3), (1, 1, 1))


def test_each_mode_validates_a_study_once(monkeypatch, suspect, reference):
    calls = []
    original = ledger.validate

    def counting(study):
        calls.append(study.id)
        return original(study)

    # rebind every module-level name of validate, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name == "evidential" or name.startswith("evidential."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    bundled = list(suspect) + list(reference)
    # construction validates each study once ...
    made = [StudySummary(s.id, s.n, s.means, s.sds) for s in bundled]
    assert calls == [s.id for s in bundled]
    # ... and no evaluation validates it again
    calls.clear()
    for study in made:
        for mode in (Mode.PAPER, Mode.EXACT):
            evidential_value(study, mode)
        variance_profile(study)
        z_v_statistic(study)
        z_c_statistic(study)
    assert calls == []


# --- contrast statistics --------------------------------------------------

def test_z_statistics_row1(by_id):
    assert z_v_statistic(by_id["1"]) == pytest.approx(0.15652280190218973, abs=1e-12)
    assert z_c_statistic(by_id["1"]) == pytest.approx(0.14156878009550686, abs=1e-12)


def test_z_v_kanten(by_id):
    assert z_v_statistic(by_id["Kanten-l"]) == pytest.approx(-0.9625, abs=5e-4)


def test_zero_contrast_gives_zero_statistics(by_id):
    assert z_v_statistic(by_id["8"]) == 0.0
    assert z_c_statistic(by_id["8"]) == 0.0


def test_equal_sds_make_both_statistics_coincide():
    study = StudySummary("e", 30, (1.0, 1.4, 2.1), (1.0, 1.0, 1.0))
    assert z_v_statistic(study) == pytest.approx(z_c_statistic(study), abs=1e-15)


# --- threshold inversion and null tails -----------------------------------

def test_threshold_at_two_matches_published_band():
    assert threshold_ratio(2.0) == pytest.approx(0.3191, abs=5e-4)


def test_threshold_at_ten():
    # spec's worked example (0.0937) fails its own forward check, which
    # gives V = 6.50; bisection with forward verification yields this value
    assert threshold_ratio(10.0) == pytest.approx(0.06076514718647526, abs=1e-9)


def test_threshold_approaches_one_from_below():
    assert threshold_ratio(1.0001) == pytest.approx(0.990017, abs=1e-4)
    assert threshold_ratio(1.0 + 1e-9) > 0.999


def test_threshold_forward_round_trip():
    for v in (1.5, 2.0, 3.0, 10.0, 123.0, 1e4, 1e7, 1e20, 1e200):
        # the middle-regime value at r = sqrt(t), written in r: t = r^2
        # underflows for the largest v
        r = threshold_ratio(v)
        assert math.exp(0.5 * (r * r - 1.0)) / r == pytest.approx(v, rel=1e-9), v


def test_threshold_domain_error():
    with pytest.raises(ValueError):
        threshold_ratio(1.0)
    with pytest.raises(ValueError):
        threshold_ratio(0.5)
    for v in (INF, math.nan):
        with pytest.raises(ValueError):
            threshold_ratio(v)


def test_null_tail_values():
    assert null_tail_probability(2.0) == pytest.approx(0.2504, abs=5e-4)
    assert null_tail_probability(10.0) == pytest.approx(0.048453752477336166, abs=1e-9)
    assert null_tail_probability(1.0 + 1e-9) == pytest.approx(0.6827, abs=1e-3)
    assert null_tail_probability(1e6) < 1e-3


# --- combination ------------------------------------------------------------

def _point(v):
    return EvidentialValue(v, v, Case.MIDDLE)


def test_combine_twelve_twos():
    combined = combine([_point(2.0)] * 12, prior_odds=1.0)
    assert combined.product_lower == pytest.approx(4096.0)
    assert combined.posterior_odds_lower == pytest.approx(4096.0)


def test_combine_absorbs_unbounded():
    iv = EvidentialValue(13.95, INF, Case.BELOW)
    combined = combine([_point(2.0), iv], prior_odds=0.5)
    assert combined.product_lower == pytest.approx(27.9)
    assert combined.product_upper == INF
    assert combined.posterior_odds_upper == INF
    assert combined.posterior_odds_lower == pytest.approx(13.95)


def test_combine_refuses_a_product_beyond_the_float_range():
    # finite values whose product overflows are not unbounded evidence
    with pytest.raises(OverflowError, match="exceeds the float range"):
        combine([_point(3.3e149)] * 3)
    with pytest.raises(OverflowError, match="exceeds the float range"):
        combine([_point(1e300)], prior_odds=1e10)
    # an unbounded factor still absorbs
    iv = EvidentialValue(1e300, INF, Case.BELOW)
    assert combine([iv, _point(2.0)]).product_upper == INF


def test_combine_multiplies_bare_values():
    combined = combine([_point(2.0), _point(3.0)])
    assert combined.product_lower == pytest.approx(6.0)


def test_combine_defaults_to_even_prior_odds():
    combined = combine([_point(2.0), EvidentialValue(3.0, INF, Case.BELOW)])
    assert combined.prior_odds == 1.0
    assert (combined.posterior_odds_lower, combined.posterior_odds_upper) == (6.0, INF)


def test_combine_domain_errors():
    with pytest.raises(ValueError, match="no studies"):
        combine([])
    for prior_odds in (0.0, INF, -INF, math.nan, -1.0):
        with pytest.raises(ValueError, match="^prior_odds must be positive and finite$"):
            combine([_point(2.0)], prior_odds=prior_odds)


def test_reference_corpus_empirical_tail(reference):
    values = [evidential_value(s, Mode.PAPER) for s in reference]
    assert empirical_tail_fraction(values, 2.0) == pytest.approx(3 / 21)
    with pytest.raises(ValueError):
        empirical_tail_fraction([], 2.0)


def test_empirical_tail_counts_a_value_at_v():
    # V >= v by its lower end: a tie counts, an interval reaching v does not
    values = [_point(2.0), _point(1.5), EvidentialValue(1.9, 2.5, Case.BELOW)]
    assert empirical_tail_fraction(values, 2.0) == 1 / 3


def test_combine_and_tail_on_ties_unbounded_ends_and_overflow(suspect):
    # an unbounded upper end (study 8 in paper mode) and a tie at the tail's v
    tie = [_point(2.0), _point(1.5), EvidentialValue(1.9, 2.5, Case.BELOW)]
    paper = [evidential_value(s, Mode.PAPER) for s in suspect]
    assert combine(paper).product_upper == INF
    assert combine([*paper, *tie], 0.25).posterior_odds_upper == INF
    assert empirical_tail_fraction(tie, 2.0) == 1 / 3
    # a product of finite ends beyond the float range is refused
    with pytest.raises(OverflowError, match="exceeds the float range"):
        combine([_point(3.3e149)] * 3)


# --- shape of the value function -------------------------------------------

@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_density_kernel_is_unimodal_in_the_variance(lam):
    # x -> x^(-1/2) exp(-lam/x) rises to 1/sqrt(2 e lam) at x = 2 lam, then falls
    def f(x):
        return math.exp(-lam / x) / math.sqrt(x)

    rising = np.linspace(lam * 1e-3, 2 * lam, 2000)
    falling = np.linspace(2 * lam, 50 * lam, 2000)
    assert all(f(a) <= f(b) + 1e-15 for a, b in zip(rising, rising[1:]))
    assert all(f(a) >= f(b) - 1e-15 for a, b in zip(falling, falling[1:]))
    assert f(2 * lam) == pytest.approx(1.0 / math.sqrt(2 * math.e * lam), rel=1e-12)


def test_normalized_value_has_minimum_one_at_one():
    # x -> x^(-1/2) exp((x-1)/2) on (0, inf)
    def g(x):
        return math.exp(0.5 * (x - 1.0)) / math.sqrt(x)

    xs = np.linspace(1e-4, 8.0, 4000)
    assert min(g(x) for x in xs) >= 1.0 - 1e-12
    assert g(1.0) == 1.0


def test_case_expressions_agree_at_boundaries():
    rng = np.random.default_rng(55)
    for _ in range(200):
        q = math.sqrt(rng.uniform(1e-6, 1.0))
        # at r == q, the below-case value (r < q) meets the middle one (r > q)
        below = math.exp(log_value(math.nextafter(q, 0.0), q))
        middle = math.exp(log_value(math.nextafter(q, 2.0), q))
        assert below == pytest.approx(middle, rel=1e-10)
        # at r == 1, the middle value meets the above-case value 1
        assert math.exp(log_value(math.nextafter(1.0, 0.0), q)) == pytest.approx(1.0, abs=1e-10)
        assert log_value(math.nextafter(1.0, 2.0), q) == 0.0


def test_r_of_exactly_one_is_the_middle_case():
    # n = 9, contrast 1 and s0 = 3 give r = 1 exactly, where V = 1
    study = StudySummary("one", 9, (1.0, 0.0, 0.0), (2.0, 1.0, 1.0))
    assert variance_profile(study).z_v == 1.0
    for mode in Mode:
        value = evidential_value(study, mode)
        assert (value.case, value.lower, value.upper) == (Case.MIDDLE, 1.0, 1.0), mode


def test_value_is_continuous_across_the_floor_boundary():
    # a study engineered to sit on nz^2 == paper floor, then nudged across
    sds = (1.07, 1.21, 0.82)  # paper floor 0.2809
    n = 4.0
    z0 = math.sqrt(0.2809 / n)
    values = []
    for dz in (-1e-9, 1e-9):
        study = StudySummary("b", n, (z0 + dz, 0.0, 0.0), sds)
        values.append(evidential_value(study, Mode.PAPER))
    below, middle = values
    assert below.case is Case.BELOW and middle.case is Case.MIDDLE
    assert below.lower == pytest.approx(middle.lower, abs=1e-6)
    assert below.upper == pytest.approx(middle.lower, abs=1e-6)


def test_middle_value_depends_only_on_the_ratio():
    # same t = n z^2 / s0^2 through different (n, z, sds) shapes
    a = StudySummary("a", 20, (0.1, 0.0, 0.0), (1.0, 1.0, 1.0))
    b = StudySummary("b", 5, (0.2, 0.0, 0.0), (1.0, 1.0, 1.0))
    c = StudySummary("c", 20, (0.2, 0.0, 0.0), (2.0, 2.0, 2.0))
    va = evidential_value(a, Mode.PAPER)
    vb = evidential_value(b, Mode.PAPER)
    vc = evidential_value(c, Mode.PAPER)
    assert va.case is Case.MIDDLE
    assert va.lower == pytest.approx(vb.lower, rel=1e-12)
    assert va.lower == pytest.approx(vc.lower, rel=1e-12)


# --- global invariants ------------------------------------------------------

finite_mean = st.floats(-50.0, 50.0, allow_nan=False)
positive_sd = st.floats(0.05, 50.0, allow_nan=False)


@given(
    st.floats(2.0, 500.0),
    finite_mean, finite_mean, finite_mean,
    positive_sd, positive_sd, positive_sd,
)
@example(2.0, 2.225073858507203e-309, 0.0, 0.0, 1.0, 1.0, 1.0)  # V is about 4.7e308
@settings(max_examples=300, deadline=None)
def test_paper_value_is_never_exculpatory(n, x1, x2, x3, s1, s2, s3):
    study = StudySummary("h", n, (x1, x2, x3), (s1, s2, s3))
    try:
        ev = evidential_value(study, Mode.PAPER)
    except OverflowError:
        # refused only where the unconstrained upper end is beyond the float range
        r = abs(variance_profile(study).z_v)
        assert log_value(r, 0.0) > math.log(sys.float_info.max)
        return
    assert ev.lower >= 1.0
    assert ev.upper >= ev.lower


@given(st.floats(0.001, 1000.0))
@settings(max_examples=60, deadline=None)
def test_scale_invariance_paper(c):
    base = StudySummary("s", 20, (2.47, 3.04, 3.68), (1.21, 0.72, 0.68))
    scaled = StudySummary(
        "s", 20, tuple(c * x for x in base.means), tuple(c * s for s in base.sds)
    )
    ev0 = evidential_value(base, Mode.PAPER)
    ev1 = evidential_value(scaled, Mode.PAPER)
    assert ev1.lower == pytest.approx(ev0.lower, rel=1e-9)
    assert ev1.upper == pytest.approx(ev0.upper, rel=1e-9)
    assert z_v_statistic(scaled) == pytest.approx(z_v_statistic(base), rel=1e-9)
    assert z_c_statistic(scaled) == pytest.approx(z_c_statistic(base), rel=1e-9)


def test_scale_invariance_exact_mode():
    base = StudySummary("s", 20, (3.19, 4.01, 4.79), (1.07, 1.21, 0.82))
    ev0 = evidential_value(base, Mode.EXACT)
    for c in (0.13, 7.3):
        scaled = StudySummary(
            "s", 20, tuple(c * x for x in base.means), tuple(c * s for s in base.sds)
        )
        ev1 = evidential_value(scaled, Mode.EXACT)
        assert ev1.lower == pytest.approx(ev0.lower, rel=1e-6)


# --- the whole float range ---------------------------------------------------

def test_rows_far_from_table_scale():
    ev = {}
    for name, n, means, sds in (
        ("tiny", 20, (1e-200, 0.0, 0.0), (1e-200, 2e-200, 1e-200)),
        ("unit", 20, (1.0, 0.0, 0.0), (1.0, 2.0, 1.0)),
        ("underflow", 20, (1e-200, 0.0, 0.0), (1e-150, 1e-150, 1e-150)),
        ("small n", 1e-320, (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        ("huge", 20, (1e200, -1e200, 1e200), (1e200, 1e200, 1e200)),
        ("floor overflow", 20, (0.0, 0.0, 0.0), (1e154, 1e150, 1e154)),
    ):
        study = StudySummary(name, n, means, sds)
        ev[name] = {mode: evidential_value(study, mode) for mode in Mode}
        ev[name]["z_v"] = z_v_statistic(study)
    for mode in Mode:
        # a scaled copy of a V = 1 row
        assert ev["tiny"][mode] == (1.0, 1.0, Case.ABOVE)
        assert ev["unit"][mode] == (1.0, 1.0, Case.ABOVE)
        # n z^2 and s0^2 would underflow; V = exp(-1/2)/r
        assert ev["underflow"][mode].lower == pytest.approx(
            math.exp(-0.5) / math.sqrt(20 / 6) * 1e50, rel=1e-12
        )
        assert ev["small n"][mode].lower == pytest.approx(1.4857e160, rel=1e-4)
        assert ev["huge"][mode].case is Case.ABOVE
    assert ev["tiny"]["z_v"] == pytest.approx(ev["unit"]["z_v"], rel=1e-12)
    assert render_value(ev["floor overflow"][Mode.PAPER]) == "1.00–∞"
    assert ev["floor overflow"][Mode.EXACT].lower == INF
    # r = sqrt(1e-300) * 1e-200 / sqrt(6) underflows, yet the contrast is not
    # zero: V is about 1.5e349, an overflow, not the unbounded value
    for mode in Mode:
        with pytest.raises(OverflowError):
            evidential_value(StudySummary("u", 1e-300, (1e-200, 0.0, 0.0), (1.0, 1.0, 1.0)), mode)


@given(
    st.integers(1, 1000),
    st.tuples(*[st.integers(-9999, 9999)] * 3),
    st.tuples(*[st.integers(1, 9999)] * 3),
    st.integers(-300, 300),
)
# sds whose decimals close the paper floor's corner (2*s2 = s1 + s3) and its
# mixed point (2*s2 = hypot(s1, s3)), which floats miss by about 1e-16
@example(n=1, means=(0, 0, 0), sds=(1, 272, 543), k=1)
@example(n=20, means=(0, 0, 0), sds=(16, 17, 30), k=-3)
@settings(max_examples=200, deadline=None)
def test_value_is_scale_free_across_the_float_range(tmp_path_factory, n, means, sds, k):
    # a table row in hundredths, scaled by 10**k in decimal, so that the
    # printed decimals (which decide a zero contrast) scale exactly
    def row(e):
        return [float(f"{x}e{e - 2}") for x in means + sds]

    base = StudySummary("h", n, row(0)[:3], row(0)[3:])
    scaled = StudySummary("h", n, row(k)[:3], row(k)[3:])
    profile, base_profile = variance_profile(scaled), variance_profile(base)
    path = tmp_path_factory.mktemp("scaled") / "row.csv"
    path.write_text("id,n,x1,x2,x3,s1,s2,s3\nh,%d,%r,%r,%r,%r,%r,%r\n" % (n, *row(k)))
    for mode in Mode:
        ev0, ev = evidential_value(base, mode), evidential_value(scaled, mode)
        assert ev.lower >= 1.0
        q, q0 = (p.q_exact if mode is Mode.EXACT else p.q_paper for p in (profile, base_profile))
        # on a regime boundary both formulas agree, and rounding picks the label
        if not any(math.isclose(abs(base_profile.z_v), edge, rel_tol=1e-9) for edge in (q0, 1.0)):
            assert ev.case is ev0.case
        assert ev.lower == pytest.approx(ev0.lower, rel=1e-9)
        assert ev.upper == pytest.approx(ev0.upper, rel=1e-9)
        assert math.isinf(ev.lower) == (contrast(scaled.means) == 0.0 and q == 0.0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compute", "--input", str(path), "--mode", mode.value]) == 0


def test_exact_value_sits_inside_paper_interval_quick():
    rng = np.random.default_rng(66)
    for k in range(300):
        study = random_study(rng, ident=str(k))
        paper = evidential_value(study, Mode.PAPER)
        exact = evidential_value(study, Mode.EXACT)
        assert exact.lower >= paper.lower * (1 - 1e-9)
        if math.isinf(exact.upper):
            assert math.isinf(paper.upper)
        else:
            assert exact.upper <= paper.upper * (1 + 1e-9)


def test_variance_ratio_band():
    # pooled-variance ratio of the two contrast statistics stays in (1/2, 2)
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        s1, s2, s3 = rng.uniform(0.01, 100.0, 3)
        ratio = (s1**2 + 4 * s2**2 + s3**2) / (2 * (s1**2 + s2**2 + s3**2))
        assert 0.5 < ratio < 2.0
