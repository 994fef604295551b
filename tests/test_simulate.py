import math
import warnings

import numpy as np
import pytest
from scipy import stats

from evidential.geometry import CorrelationTriple
from evidential.ledger import LedgerError
from evidential.simulate import (
    ModelParams,
    ParameterError,
    copy_probabilities,
    generate_errors,
    null_exceedance,
    simulate_study,
)

from helpers import conditional_null_tail

RHO_HALF = CorrelationTriple(0.5, 0.5, 0.5)
NULL_RHO = CorrelationTriple(0.0, 0.0, 0.0)


def params(mu=(0, 0, 0), sigma=(1, 1, 1), rho=NULL_RHO, n=100):
    return ModelParams(mu=mu, sigma=sigma, rho=rho, n=n)


# --- parameter validation ---------------------------------------------------

def test_copy_probabilities_null():
    assert copy_probabilities((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_copy_probabilities_symmetric_half():
    p = copy_probabilities((0.5, 0.5, 0.5))
    for pi in p:
        assert pi == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_copy_probabilities_ratio_conditions_hold():
    # rho2*rho3/rho1 = 0.0111..., the other two ratios are 0.9: all valid
    p1, p2, p3 = copy_probabilities((0.9, 0.1, 0.1))
    assert p1 == pytest.approx(math.sqrt(0.1 * 0.1 / 0.9), abs=1e-12)
    assert p2 == pytest.approx(math.sqrt(0.9), abs=1e-12)
    assert p3 == pytest.approx(math.sqrt(0.9), abs=1e-12)


def test_copy_probabilities_name_the_violated_condition():
    # interior triple (det > 0) whose first Bernoulli probability would be
    # sqrt(0.4*0.4/0.05) > 1
    with pytest.raises(ParameterError, match=r"rho2\*rho3 <= rho1"):
        copy_probabilities((0.05, 0.4, 0.4))


def test_copy_probabilities_reject_mixed_zero_and_negative():
    with pytest.raises(ParameterError, match="all rho_i > 0"):
        copy_probabilities((0.5, 0.0, 0.0))
    with pytest.raises(ParameterError, match="all rho_i > 0"):
        copy_probabilities((0.5, -0.1, 0.5))


def test_model_params_validation():
    with pytest.raises(ParameterError, match="sigma must be positive"):
        params(sigma=(1, -1, 1))
    with pytest.raises(ParameterError, match="positive integer"):
        params(n=0)
    with pytest.raises(ParameterError, match="positive integer"):
        params()._replace(n=0)
    assert params()._replace(n=5.0).n == 5 and type(params()._replace(n=5.0).n) is int
    with pytest.raises(ValueError):
        params(rho=(1.0, 1.0, 1.0))  # boundary triple is not admissible
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="mu and sigma must be finite"):
            params(sigma=(bad, 1, 1))
        with pytest.raises(ParameterError, match="mu and sigma must be finite"):
            params(mu=(0, bad, 0))


# --- error generation --------------------------------------------------------

def test_generate_errors_deterministic():
    p = params(rho=RHO_HALF, n=500)
    a = generate_errors(p, seed=123)
    b = generate_errors(p, seed=123)
    c = generate_errors(p, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (3, 500)


def test_null_errors_are_uncorrelated():
    p = params(n=100_000)
    eps = generate_errors(p, seed=5)
    corr = np.corrcoef(eps)
    bound = 4.0 / math.sqrt(p.n)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(corr[i, j]) < bound


def test_copying_identity_and_stream_layout():
    # regenerate the documented draw sequence and check the exact identity:
    # whenever two cells both copy a column, their standardized errors match
    # (power-of-two sigmas so the scaling round-trips exactly in floats)
    sigma = (2.0, 1.0, 0.5)
    p = params(sigma=sigma, rho=RHO_HALF, n=20_000)
    seed = 99
    eps = generate_errors(p, seed=seed)

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(p.n)
    v = rng.standard_normal((3, p.n))
    probs = np.asarray(copy_probabilities(RHO_HALF))
    delta = rng.random((3, p.n)) < probs[:, None]
    expected = np.asarray(sigma)[:, None] * np.where(delta, u[None, :], v)
    assert np.array_equal(eps, expected)

    standardized = eps / np.asarray(sigma)[:, None]
    both = delta[0] & delta[1]
    assert both.any()
    assert np.array_equal(standardized[0, both], standardized[1, both])
    assert np.array_equal(standardized[0, both], u[both])
    # both-copy events happen with probability rho3 = 0.5
    assert both.mean() == pytest.approx(0.5, abs=4.0 / math.sqrt(p.n))


def test_marginals_stay_normal_under_copying():
    sigma = (1.5, 1.0, 0.5)
    p = params(sigma=sigma, rho=RHO_HALF, n=10_000)
    # 1% asymptotic Kolmogorov-Smirnov critical value
    critical = 1.63 / math.sqrt(p.n)
    for seed in (0, 1, 2):
        eps = generate_errors(p, seed=seed)
        for i in range(3):
            d = stats.kstest(eps[i], "norm", args=(0.0, sigma[i])).statistic
            assert d < critical


def test_empirical_correlations_match_targets():
    n = 100_000
    bound = 4.0 / math.sqrt(n)
    for rho in ((0.5, 0.5, 0.5), (0.3, 0.2, 0.4)):
        p = params(rho=CorrelationTriple(*rho), n=n)
        eps = generate_errors(p, seed=11)
        corr = np.corrcoef(eps)
        # pairwise correlations are (rho3, rho2, rho1) for (12, 13, 23)
        assert corr[0, 1] == pytest.approx(rho[2], abs=bound)
        assert corr[0, 2] == pytest.approx(rho[1], abs=bound)
        assert corr[1, 2] == pytest.approx(rho[0], abs=bound)


# --- study synthesis ---------------------------------------------------------

def test_simulate_study_recovers_parameters():
    p = params(mu=(1.0, 2.0, 3.0), n=1_000_000)
    study = simulate_study(p, seed=3)
    for mean, mu in zip(study.means, p.mu):
        assert mean == pytest.approx(mu, abs=0.01)
    for sd in study.sds:
        assert sd == pytest.approx(1.0, abs=0.01)
    assert study.n == 1_000_000.0


def test_simulate_study_refuses_overflowing_sds_without_a_numpy_warning():
    # 1e300 * N(0, 1) is finite, but its sample variance overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LedgerError) as info:
            simulate_study(params(sigma=(1e300, 1, 1), n=20), seed=(1, 0))
    assert str(info.value) == "study 'sim': sds must be finite"


def test_simulate_study_needs_two_observations():
    with pytest.raises(ParameterError, match="n >= 2"):
        simulate_study(params(n=1), seed=0)


def test_zero_means_give_centered_contrast():
    zs = []
    for rep in range(200):
        study = simulate_study(params(n=50), seed=(9, rep))
        zs.append(study.means[0] - 2 * study.means[1] + study.means[2])
    # E[z] = 0, sd(z) = sqrt(6/50); the mean of 200 draws is within 4 se
    assert abs(np.mean(zs)) < 4 * math.sqrt(6 / 50) / math.sqrt(200)


# --- null calibration --------------------------------------------------------

def test_null_exceedance_is_deterministic():
    a = null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=2000, seed=17)
    b = null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=2000, seed=17)
    assert a == b
    assert a.mc_stderr == pytest.approx(
        math.sqrt(a.exceed_prob * (1 - a.exceed_prob) / a.reps), abs=1e-15
    )


def test_null_exceedance_monotone_in_threshold():
    probs = [
        null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=v, reps=2000, seed=17).exceed_prob
        for v in (1.5, 2.0, 3.0, 10.0, 1e6)
    ]
    assert probs == sorted(probs, reverse=True)
    assert probs[-1] < 0.05


def test_null_exceedance_is_schedule_independent():
    # per-replication streams are keyed by (seed, rep), so evaluating the
    # replications in any order reproduces the same count
    report = null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=1200, seed=31)
    p = ModelParams(mu=(0, 0, 0), sigma=(1, 1, 1), rho=NULL_RHO, n=20)
    from evidential.engine import Mode, evidential_value

    count = 0
    for rep in reversed(range(1200)):
        study = simulate_study(p, seed=(31, rep))
        if evidential_value(study, Mode.PAPER).lower >= 2.0:
            count += 1
    assert count / 1200 == report.exceed_prob


def test_null_exceedance_equals_the_per_replication_loop():
    # the blocked path evaluates only the replications its threshold screen
    # keeps; the count must be that of evaluating every replication
    from evidential import simulate
    from evidential.engine import Mode, evidential_value

    # log(1 + 2**-52) is far inside the band, log(1e300) far outside it
    thresholds = (1.0 + 2.0**-52, 1.5, 2.0, 10.0, 1e6, 1e300)
    # (0.01, 1, 100) never reaches v; (1.5, 0.7, 2) has a paper floor
    # that n*z^2 falls below in about a third of the replications; the
    # last two have sds 300 decimal orders apart
    sigmas = (
        (1.0, 1.0, 1.0),
        (0.01, 1.0, 100.0),
        (1.5, 0.7, 2.0),
        (1e-150, 1.0, 1e-150),
        (1e150, 1.0, 1.0),
        (1e-150, 1e-150, 1e-150),
    )
    cases = [(n, sigma, thresholds, 23) for n in (2, 5, 20) for sigma in sigmas]
    # at n = 1100 a block holds fewer replications, to bound its memory
    cases.append((1100, sigmas[0], (2.0,), 23))
    # the largest seed whose states are computed in bulk, and the smallest
    # that builds a default_rng per replication
    cases += [(20, sigmas[0], (2.0,), seed) for seed in (2**32 - 1, 2**32)]
    for n, sigma, vs, seed in cases:
        p = ModelParams(mu=(0, 0, 0), sigma=sigma, rho=NULL_RHO, n=n)
        lowers = [
            evidential_value(simulate_study(p, seed=(seed, rep)), Mode.PAPER).lower
            for rep in range(4 * simulate._BLOCK + 1)
        ]
        for reps in (1000, 4 * simulate._BLOCK + 1):
            for v in vs:
                expected = sum(lower >= v for lower in lowers[:reps]) / reps
                report = null_exceedance(n=n, sigma=sigma, v_threshold=v, reps=reps, seed=seed)
                assert report.exceed_prob == expected, (n, sigma, reps, v, seed)


def test_block_seeding_draws_the_default_rng_streams():
    # the PCG64 states computed a block at a time are those default_rng
    # builds, and the buffers drawn from them are the same bit for bit
    from evidential import simulate

    generator = np.random.default_rng()
    n = 20
    out = np.empty((256, 4, n))
    expected = np.empty_like(out)
    for seed in (0, 1, 42, 2**31, 2**32 - 1):
        # 2**32 - 256 starts the last block whose indices are one uint32
        # word; the block from 2**32 - 128 builds a default_rng per index
        for first in (0, 1, 1000, 2**32 - 256, 2**32 - 128):
            if first + len(out) <= 2**32:
                states = simulate._pcg64_states(seed, first, len(out))
                for i, (state, inc) in enumerate(states):
                    reference = np.random.default_rng((seed, first + i)).bit_generator.state
                    assert reference["state"] == {"state": state, "inc": inc}, (seed, first + i)
            simulate._standard_normals(out, seed, first, generator)
            for i, row in enumerate(expected):
                np.random.default_rng((seed, first + i)).standard_normal(out=row)
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), (seed, first)


def count_engine_calls(monkeypatch):
    # wraps the engine call that null_exceedance leaves to band replications
    from evidential import simulate

    calls = []
    evaluate = simulate.evidential_value

    def counting(study, mode):
        calls.append(study)
        return evaluate(study, mode)

    monkeypatch.setattr(simulate, "evidential_value", counting)
    return calls


@pytest.mark.parametrize(
    "n, sigma",
    [
        pytest.param(20, (1.0, 1.0, 1.0), id="sigma0"),
        pytest.param(20, (1.5, 0.7, 2.0), id="sigma1"),
        pytest.param(101, (1e-150, 1e-150, 1e-150), id="sigma2"),
    ],
)
def test_null_exceedance_decides_almost_every_replication_in_numpy(monkeypatch, n, sigma):
    # a tripwire: the numpy decision leaves only a thin band to the engine
    from evidential import simulate

    calls = count_engine_calls(monkeypatch)
    reps = 4 * simulate._BLOCK + 1
    null_exceedance(n=n, sigma=sigma, v_threshold=2.0, reps=reps, seed=42)
    assert len(calls) <= 0.01 * reps


def test_null_exceedance_band_path_equals_the_per_replication_loop(monkeypatch):
    # an infinite tolerance leaves every replication to the engine
    from evidential import simulate
    from evidential.engine import Mode, evidential_value

    p = ModelParams(mu=(0, 0, 0), sigma=(1.5, 0.7, 2.0), rho=NULL_RHO, n=20)
    lowers = [
        evidential_value(simulate_study(p, seed=(5, rep)), Mode.PAPER).lower
        for rep in range(1000)
    ]
    calls = count_engine_calls(monkeypatch)
    monkeypatch.setattr(simulate, "_LOG_TOL", math.inf)
    for v in (1.5, 2.0, 10.0):
        calls.clear()
        report = null_exceedance(n=20, sigma=p.sigma, v_threshold=v, reps=1000, seed=5)
        assert len(calls) == 1000
        assert report.exceed_prob == sum(lower >= v for lower in lowers) / 1000, v


@pytest.mark.parametrize(
    "n, sigma", [(20, (1, 1, 1)), (5, (1, 1, 1)), (2, (1, 1, 1)), (20, (1.5, 0.7, 2))]
)
def test_null_exceedance_agrees_with_the_conditional_null_tail(n, sigma):
    # an independent model check: given the sds, V >= v iff n*z^2 <= t, a
    # chi-square(1) event; its average over the sds' law is what simulate
    # estimates (the conditional average's own error is about 0.0003)
    report = null_exceedance(n=n, sigma=sigma, v_threshold=2.0, reps=20_000, seed=8)
    expected = conditional_null_tail(2.0, n, sigma, draws=200_000, seed=8)
    assert abs(report.exceed_prob - expected) <= 4 * report.mc_stderr, (report, expected)


def test_null_exceedance_parameter_errors():
    with pytest.raises(ParameterError, match="reps"):
        null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=0, seed=1)
    for v in (1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="^v must exceed 1 and be finite$"):
            null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=v, reps=2000, seed=1)
    with pytest.raises(ParameterError, match="n >= 2"):
        null_exceedance(n=1, sigma=(1, 1, 1), v_threshold=2.0, reps=2000, seed=1)
    with pytest.raises(ParameterError, match="^seed must be a non-negative integer$"):
        null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=2000, seed=-1)


def test_mu_on_the_constraint_changes_nothing():
    # the value distribution only sees the mean contrast, which vanishes
    # for any mu with mu1 - 2*mu2 + mu3 = 0; per-study decisions coincide
    from evidential.engine import Mode, evidential_value

    base = params(mu=(0.0, 0.0, 0.0), n=20)
    shifted = params(mu=(1.0, 2.0, 3.0), n=20)
    hits_base = []
    hits_shifted = []
    for rep in range(500):
        sa = simulate_study(base, seed=(13, rep))
        sb = simulate_study(shifted, seed=(13, rep))
        za = sa.means[0] - 2 * sa.means[1] + sa.means[2]
        zb = sb.means[0] - 2 * sb.means[1] + sb.means[2]
        assert za == pytest.approx(zb, abs=1e-10)
        hits_base.append(evidential_value(sa, Mode.PAPER).lower >= 2.0)
        hits_shifted.append(evidential_value(sb, Mode.PAPER).lower >= 2.0)
    assert hits_base == hits_shifted
