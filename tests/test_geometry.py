import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    elliptope_det,
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
    with pytest.raises(ValueError, match="sds must be positive"):
        exact_infimum_sq((1.0, -1.0, 1.0))
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
    prof = variance_profile(suspect.studies[0])
    # n z^2 = 20 * 0.07^2 = 0.098 and s0^2 = 4.0001
    assert prof.z_v == pytest.approx(math.sqrt(0.098 / 4.0001), abs=1e-12)
    assert prof.z_c == pytest.approx(math.sqrt(0.098 / (2 * (1.21**2 + 0.72**2 + 0.68**2))), abs=1e-12)


def test_variance_profile_row8(suspect):
    prof = variance_profile(suspect.studies[7])
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
