import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evidential import geometry
from evidential.geometry import (
    contrast,
    exact_infimum_sq,
    paper_lower_bound_sq,
    variance_profile,
)
from evidential.ledger import LedgerError, StudySummary

from helpers import (
    CorrelationTriple,
    GeometryError,
    brute_force_infimum_sq,
    combined_sd,
    contrast_oracle,
    elliptope_det,
    floors_oracle,
    is_interior,
    numeric_infimum_sq,
    random_interior_rho,
    random_sds,
)

rho_component = st.floats(-1.5, 1.5, allow_nan=False)


def test_elliptope_det_examples():
    assert elliptope_det((0, 0, 0)) == 1.0
    assert elliptope_det((1, 1, 1)) == 0.0
    assert elliptope_det((0.9, 0.9, 0.9)) == pytest.approx(0.028, abs=1e-12)


def test_is_interior():
    assert is_interior((0, 0, 0))
    assert is_interior((0.9, 0.9, 0.9))
    assert not is_interior((1, 1, 1))
    assert not is_interior((0.95, 0.95, 0.1))


@given(rho_component, rho_component, rho_component)
def test_elliptope_det_permutation_invariant(r1, r2, r3):
    base = elliptope_det((r1, r2, r3))
    for perm in ((r1, r3, r2), (r2, r1, r3), (r2, r3, r1), (r3, r1, r2), (r3, r2, r1)):
        assert elliptope_det(perm) == pytest.approx(base, abs=1e-12)


@given(rho_component, rho_component, rho_component)
def test_elliptope_det_two_sign_flips_invariant(r1, r2, r3):
    base = elliptope_det((r1, r2, r3))
    for flipped in ((-r1, -r2, r3), (-r1, r2, -r3), (r1, -r2, -r3)):
        assert elliptope_det(flipped) == pytest.approx(base, abs=1e-12)


def test_correlation_triple_enforces_interior():
    CorrelationTriple(0.0, 0.0, 0.0)
    CorrelationTriple(0.9, 0.9, 0.9)
    with pytest.raises(ValueError):
        CorrelationTriple(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CorrelationTriple(0.95, 0.95, 0.1)
    with pytest.raises(ValueError):
        CorrelationTriple(0.0, 0.0, 0.0)._replace(rho1=1.0)
    with pytest.raises(ValueError):
        CorrelationTriple._make((0.95, 0.95, 0.1))


def test_combined_sd_examples():
    assert combined_sd((0, 0, 0), (1.21, 0.72, 0.68)) == pytest.approx(
        2.000024999843752, abs=1e-12
    )
    assert combined_sd((0, 0, 0), (1, 1, 1)) == pytest.approx(math.sqrt(6), abs=1e-12)


def test_combined_sd_boundary_limit():
    # approaching the all-ones corner, s -> |2*s2 - s1 - s3|
    for sds in ((1.07, 1.21, 0.82), (2.0, 0.4, 1.1)):
        r = 1.0 - 1e-9
        near = combined_sd((r, r, r), sds)
        s1, s2, s3 = sds
        assert near == pytest.approx(abs(2 * s2 - s1 - s3), abs=1e-3)


def test_combined_sd_rejects_impossible_inputs():
    # far outside the admissible region the quadratic form goes negative
    with pytest.raises(GeometryError, match="negative contrast variance"):
        combined_sd((0.999, -0.999, 0.999), (1, 1, 1))


def test_contrast_is_decimal_exact():
    assert contrast((2.87, 3.83, 4.79)) == 0.0
    assert contrast((2.47, 3.04, 3.68)) == 0.07
    assert contrast((5.1, 5.1, 5.1)) == 0.0
    # exact in any order, however far apart the magnitudes
    assert contrast((1e-30, 5e29, 1e30)) == contrast((1e30, 5e29, 1e-30)) == 1e-30


@st.composite
def printed_means(draw):
    # a mean as a table prints it: 0 to 8 decimal places, up to 1e10 in
    # magnitude, on both sides of the integer path's bound 2**52 * 1e-6
    places = draw(st.integers(0, 8))
    digits = draw(st.integers(-(10 ** (10 + places)), 10 ** (10 + places)))
    return float(f"{digits}e-{places}")


#: floats on both sides of 2**52 * 1e-6 = 4503599627.370496, with up to
#: about 7 decimal places
near_bound = st.floats(4.4e9, 4.6e9) | st.floats(-4.6e9, -4.4e9)


def _same_contrast(means):
    # repr, so that the sign of a zero counts
    assert repr(contrast(means)) == repr(contrast_oracle(means)), means


@given(st.tuples(*[printed_means() | near_bound] * 3))
@example((4503599627.370496, 0.0, 0.0))
@example((4503599627.370497, 1.0, -4503599627.370495))
@example((-0.0, 0.0, -0.0))
# above the bound the float spacing is 2**-19: round(x * 10**6) = 9000000000000019
# gives x back, yet repr(x) is 9000000000.00002, and the contrast is 2e-05
@example((9000000000.00002, 0.0, -9e9))
@settings(max_examples=500, deadline=None)
def test_contrast_of_printed_means_is_the_decimal_sum(means):
    _same_contrast(means)


@given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
@example((1.7e308, -1.7e308, 1.7e308))
@example((-1.7e308, 1.7e308, -1.7e308))
@example((5e-324, -0.0, -5e-324))
@example((0.0, -0.0, 0.0))
@settings(max_examples=500, deadline=None)
def test_contrast_of_any_finite_means_is_the_decimal_sum(means):
    _same_contrast(means)


@given(printed_means(), printed_means())
@settings(max_examples=300, deadline=None)
def test_contrast_on_the_zero_line_is_zero(x1, x2):
    # x3 = 2*x2 - x1 in decimal; a float holds it where it has at most 17
    # significant digits, and then the contrast is an exact (positive) zero
    x3 = float(2 * Decimal(repr(x2)) - Decimal(repr(x1)))
    _same_contrast((x1, x2, x3))
    if contrast_oracle((x1, x2, x3)) == 0.0:
        assert repr(contrast((x1, x2, x3))) == "0.0"


def _no_decimal(*args):
    raise AssertionError("the decimal path ran")


def test_table_studies_take_the_integer_path(monkeypatch, suspect, reference):
    # every bundled study with a nonzero contrast, and no floor gap near
    # zero, is computed without Decimal: a change that quietly drops the
    # integer path fails here
    studies = [s for s in list(suspect) + list(reference) if contrast(s.means)]
    profiles = [variance_profile(s) for s in studies]
    monkeypatch.setattr(geometry, "Decimal", _no_decimal)
    assert studies
    assert [variance_profile(s) for s in studies] == profiles
    assert all(contrast(s.means) for s in studies)


@pytest.mark.parametrize(
    "sds",
    # the decimal floor's examples of test_value_is_scale_free_across_the_float_range
    [(0.1, 27.2, 54.3), (1.6e-4, 1.7e-4, 3.0e-4)],
)
def test_a_floor_gap_near_zero_still_goes_to_decimal(monkeypatch, sds):
    # the corner 2*s2 - (s1 + s3) of the first and the mixed point
    # 2*s2 - hypot(s1, s3) of the second are zero in decimal and about
    # 1e-16 in floats: variance_profile's one test of its three gaps sends
    # them to _decided, whose decimal branch makes the gap an exact zero
    calls = []
    real = geometry.Decimal
    monkeypatch.setattr(geometry, "Decimal", lambda text: calls.append(text) or real(text))
    profile = variance_profile(StudySummary("d", 20, (0.0, 0.0, 0.01), sds))
    assert calls and profile.q_paper == 0.0


def test_paper_lower_bound_examples():
    assert paper_lower_bound_sq((1.07, 1.21, 0.82)) == pytest.approx(
        0.2809, abs=1e-9
    )
    assert paper_lower_bound_sq((1.24, 1.09, 1.53)) == pytest.approx(
        0.044356248291749466, abs=1e-12
    )
    assert paper_lower_bound_sq((1, 1, 1)) == 0.0


def test_paper_lower_bound_picks_the_smaller_candidate():
    # candidates for row 6 sds: 0.2809 (corner) vs 1.14903 (mixed point)
    s1, s2, s3 = 1.07, 1.21, 0.82
    first = (2 * s2 - (s1 + s3)) ** 2
    second = (2 * s2 - math.sqrt(s1 * s1 + s3 * s3)) ** 2
    assert first == pytest.approx(0.2809, abs=1e-9)
    assert second == pytest.approx(1.1490281400517925, abs=1e-9)
    assert paper_lower_bound_sq((s1, s2, s3)) == min(first, second)


def test_floor_helpers_regressions():
    # the corner 2*2.98 - (2.99 + 2.97) is zero in decimal and 8.9e-16 in floats
    assert paper_lower_bound_sq((2.99, 2.98, 2.97)) == 0.0
    assert exact_infimum_sq((2.99, 2.98, 2.97)) == 0.0
    # here s1*s1 + s3*s3 overflows, and the mixed point must still win
    assert paper_lower_bound_sq((1e154, 0.7e154, 1e154)) == pytest.approx(
        2.020253553338642e304, rel=1e-12, abs=0
    )


def test_floor_helpers_underflow_to_zero_or_raise_past_the_float_range():
    # the floors are 2e-200 and 2e300; their squares are not floats
    assert paper_lower_bound_sq((1e-200, 2e-200, 1e-200)) == 0.0
    with pytest.raises(OverflowError):
        paper_lower_bound_sq((1e300, 2e300, 1e300))
    with pytest.raises(OverflowError):
        exact_infimum_sq((1e300, 2e300, 1e-300))


#: an sd as tables print it, to 2 decimal places
hundredths = st.integers(1, 99_999).map(lambda k: k / 100)


@st.composite
def floor_sds(draw):
    # 2-decimal sds, or a triple whose decimals close a floor (the corner,
    # the deficit or a Pythagorean mixed point), at a power-of-two scale
    # from 2**-500 to 2**500
    kind = draw(st.sampled_from(["any", "corner", "deficit", "mixed"]))
    a, b = draw(st.integers(1, 9_999)), draw(st.integers(1, 9_999))
    if kind == "any":
        sds = (draw(hundredths), draw(hundredths), draw(hundredths))
    elif kind == "corner":  # 2*s2 = s1 + s3
        b += (a + b) % 2
        sds = (a / 100, (a + b) // 2 / 100, b / 100)
    elif kind == "deficit":  # s1 = 2*s2 + s3
        sds = ((2 * a + b) / 100, a / 100, b / 100)
    else:  # (2*s2)^2 = s1^2 + s3^2
        p, q, r = draw(st.sampled_from([(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]))
        sds = (2 * p * a / 100, r * a / 100, 2 * q * a / 100)
    if draw(st.booleans()):
        sds = sds[::-1]
    scale = draw(st.integers(-500, 500))
    return tuple(math.ldexp(s, scale) for s in sds)


@given(floor_sds())
@example((2.99, 2.98, 2.97))
@example((1e154, 0.7e154, 1e154))
# s1 is the largest of w = (s1, 2*s2, s3) and the corner is near zero
@example((1.0, 0.4999999999999, 1e-13))
@settings(max_examples=500, deadline=None)
def test_floor_helpers_are_the_decimal_floors_squared(sds):
    floors = floors_oracle(sds)
    # kept where the squares are normal floats
    assume(all(f == 0 or sys.float_info.min <= f * f < math.inf for f in floors))
    tolerance = 4 * sys.float_info.epsilon * max(sds[0], 2 * sds[1], sds[2])
    for helper, floor in zip((paper_lower_bound_sq, exact_infimum_sq), floors):
        got = helper(sds)
        assert (got == 0.0) == (floor == 0.0), (helper.__name__, floor)
        assert abs(math.sqrt(got) - floor) <= tolerance, (helper.__name__, floor)


def test_variance_profile_decides_a_near_corner_as_the_corner():
    # 2*s2 - (s1 + s3) is -3e-13 and near zero, while s1 is the largest of
    # w: in decimal the corner is that gap, not the deficit 2*max(w) - sum(w)
    # (1e-13), and the paper floor is the mixed point's 2e-13
    sds = (1.0, 0.4999999999999, 1e-13)
    profile = variance_profile(StudySummary("c", 20, (0.0, 0.0, 0.01), sds))
    s0 = math.hypot(1.0, 0.9999999999998, 1e-13)
    paper, exact = floors_oracle(sds)
    assert profile.q_paper == pytest.approx(paper / s0, rel=1e-12, abs=0)
    assert profile.q_exact == pytest.approx(exact / s0, rel=1e-12, abs=0)


def test_exact_infimum_examples_against_both_oracles():
    # the last sds close a triangle in decimal: w = (13.39, 8.58, 4.81)
    cases = [(1.07, 1.21, 0.82), (1.24, 1.09, 1.53), (1.0, 1.0, 1.0), (13.39, 4.29, 4.81)]
    expected = [0.2809, 0.0, 0.0, 0.0]
    for sds, want in zip(cases, expected):
        got = exact_infimum_sq(sds)
        assert got == pytest.approx(want, abs=1e-6)
        assert (got == 0.0) == (want == 0.0), sds
        assert got == pytest.approx(brute_force_infimum_sq(sds), abs=1e-6)
        assert got == pytest.approx(numeric_infimum_sq(sds), abs=1e-6)


def test_exact_infimum_matches_brute_force_on_random_triples():
    rng = np.random.default_rng(101)
    for _ in range(12):
        sds = random_sds(rng)
        assert exact_infimum_sq(sds) == pytest.approx(
            brute_force_infimum_sq(sds), abs=1e-6
        )


def test_exact_infimum_matches_closed_form_quick():
    rng = np.random.default_rng(202)
    for _ in range(200):
        sds = random_sds(rng)
        assert exact_infimum_sq(sds) == pytest.approx(
            numeric_infimum_sq(sds), abs=1e-4
        )


def test_exact_infimum_input_checks():
    # both floor functions refuse sds that are not three positive finite numbers
    nan, inf = math.nan, math.inf
    for sds in ((1.0, -1.0, 1.0), (-1, 1, 1), (nan, 1, 1), (inf, 1, 1), (1, 1, 0), (1, 1)):
        for floor in (paper_lower_bound_sq, exact_infimum_sq):
            with pytest.raises(ValueError, match="^sds must be three positive finite numbers$"):
                floor(sds)
    with pytest.raises(ValueError, match="tol must be positive"):
        numeric_infimum_sq((1.0, 1.0, 1.0), tol=0.0)


def test_variance_reduction_floor_property():
    # 100 sds x 100 rhos = 1e4 pairs: any admissible rho that reduces the
    # combined sd stays above the computed floor
    rng = np.random.default_rng(303)
    for _ in range(100):
        sds = random_sds(rng)
        floor = exact_infimum_sq(sds)
        s_indep = combined_sd((0.0, 0.0, 0.0), sds)
        for _ in range(100):
            rho = random_interior_rho(rng)
            s = combined_sd(rho, sds)
            if s <= s_indep:
                assert s * s >= floor - 1e-6


def test_bound_chain_on_random_triples():
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        sds = random_sds(rng)
        s1, s2, s3 = sds
        s0_sq = s1 * s1 + 4 * s2 * s2 + s3 * s3
        exact = exact_infimum_sq(sds)
        paper = paper_lower_bound_sq(sds)
        assert exact <= paper + 1e-9
        assert paper <= s0_sq + 1e-12


@given(st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
def test_exact_infimum_scale_equivariance(c):
    sds = (1.07, 1.21, 0.82)
    base = exact_infimum_sq(sds)
    scaled = exact_infimum_sq(tuple(c * s for s in sds))
    assert scaled == pytest.approx(c * c * base, rel=1e-6, abs=1e-9)


def test_variance_profile_row1(suspect):
    prof = variance_profile(suspect[0])
    # n z^2 = 20 * 0.07^2 = 0.098 and s0^2 = 4.0001
    assert prof.z_v == pytest.approx(math.sqrt(0.098 / 4.0001), abs=1e-12)
    assert prof.z_c == pytest.approx(math.sqrt(0.098 / (2 * (1.21**2 + 0.72**2 + 0.68**2))), abs=1e-12)


def test_variance_profile_row8(suspect):
    prof = variance_profile(suspect[7])
    s0_sq = 1.24**2 + 4 * 1.09**2 + 1.53**2
    assert prof.z_v == 0.0
    assert prof.q_exact == pytest.approx(0.0, abs=1e-9)
    assert prof.q_paper == pytest.approx(math.sqrt(0.044356248291749466 / s0_sq), abs=1e-12)


def test_variance_profile_decides_a_near_triangle_in_decimal_at_any_scale():
    # 2*4.000000000000001 - (4.000000000000001 + 2*1 + 2) is 1e-15 in the
    # printed decimals, too close to zero for the float sign: decided in
    # decimal, it is then put in the profile's units of 4 like every sd
    study = StudySummary("t", 20, (0.0, 0.0, 0.0), (4.000000000000001, 1.0, 2.0))
    q_exact = variance_profile(study).q_exact
    assert q_exact == pytest.approx(1e-15 / math.sqrt(24), rel=1e-12, abs=0)


def test_variance_profile_equal_means_gives_zero_contrast():
    study = StudySummary("c", 20, (3.3, 3.3, 3.3), (1.0, 2.0, 0.5))
    assert variance_profile(study).z_v == 0.0


def test_variance_profile_chain_holds_exactly(suspect, reference):
    for study in list(suspect) + list(reference):
        prof = variance_profile(study)
        assert prof.q_exact <= prof.q_paper <= 1.0
        assert prof.q_exact >= 0.0


def test_variance_profile_rejects_invalid_study():
    # an invalid study cannot reach variance_profile: making it raises
    with pytest.raises(LedgerError, match="sds must be positive"):
        StudySummary("b", 20, (1, 2, 3), (1.0, 0.0, 1.0))
