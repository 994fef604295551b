import gc
import math
import os
import platform
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import stats

from evidential.ledger import LedgerError
from evidential.simulate import (
    ModelParams,
    ParameterError,
    generate_errors,
    null_exceedance,
    simulate_study,
)

from helpers import CorrelationTriple, conditional_null_tail, copy_probabilities, copying_errors

RHO_HALF = CorrelationTriple(0.5, 0.5, 0.5)


def params(mu=(0, 0, 0), sigma=(1, 1, 1), n=100):
    return ModelParams(mu=mu, sigma=sigma, n=n)


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
    # mu and sigma: three finite numbers, or their text; a bad field is named alone
    for name, good in (("mu", (0, 0, 0)), ("sigma", (1, 1, 1))):
        for bad in ((1, 1), (1, 1, 1, 1), (), 1.0, None, ("1", "", "1"), ("a", "b", "c"),
                    ("1", "1", "1", ""), ("1e400", "1", "1"), (10**400, 1, 1), "111"):
            fields = {"mu": (0, 0, 0), "sigma": (1, 1, 1), name: bad}
            with pytest.raises(ParameterError, match=f"^{name} must be three finite numbers$"):
                params(**fields)
        for bad in (math.nan, math.inf, -math.inf, "nan", "inf"):
            with pytest.raises(ParameterError, match=f"^{name} must be three finite numbers$"):
                params(**{name: (bad, *good[1:])})
            with pytest.raises(ParameterError, match=f"^{name} must be three finite numbers$"):
                params(**{name: (good[0], bad, good[2])})
    for mu, sigma, name in (((0, 0, 0), (1, 1), "sigma"), ((0, 0), (1, 1, 1), "mu")):
        with pytest.raises(ParameterError, match=f"^{name} must be three finite numbers$"):
            params(mu=mu, sigma=sigma)
    text = ModelParams(("0", "0", "0"), ("1", "1.5", "2"), 20)
    assert text == params(sigma=(1.0, 1.5, 2.0), n=20)
    assert all(type(x) is float for x in text.mu + text.sigma)
    # n: a whole number of at least 2, checked after sigma
    for bad in (0, 1, -3, math.inf, math.nan, 2.5, "20"):
        with pytest.raises(ParameterError, match="^n must be an integer of at least 2$"):
            params(n=bad)
    with pytest.raises(ParameterError, match="^sigma must be three finite numbers$"):
        params(sigma=(1, 1), n=1)
    for bad in (0, 1):
        with pytest.raises(ParameterError, match="^n must be an integer of at least 2$"):
            params()._replace(n=bad)
    with pytest.raises(ParameterError, match="^mu must be three finite numbers$"):
        params()._replace(mu=(0, "x", 0))
    assert params()._replace(n=5.0).n == 5 and type(params()._replace(n=5.0).n) is int
    with pytest.raises(ValueError):
        copying_errors((1, 1, 1), (1.0, 1.0, 1.0), 20, seed=0)  # boundary triple is not admissible


# --- error generation --------------------------------------------------------

def test_generate_errors_deterministic():
    p = params(sigma=(2.0, 1.0, 0.5), n=500)
    a = generate_errors(p, seed=123)
    b = generate_errors(p, seed=123)
    c = generate_errors(p, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (3, 500)
    # the draws of the copying generator at rho = 0
    assert np.array_equal(a, copying_errors(p.sigma, (0.0, 0.0, 0.0), p.n, seed=123))


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
    n = 20_000
    seed = 99
    eps = copying_errors(sigma, RHO_HALF, n, seed=seed)

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal((3, n))
    probs = np.asarray(copy_probabilities(RHO_HALF))
    delta = rng.random((3, n)) < probs[:, None]
    expected = np.asarray(sigma)[:, None] * np.where(delta, u[None, :], v)
    assert np.array_equal(eps, expected)

    standardized = eps / np.asarray(sigma)[:, None]
    both = delta[0] & delta[1]
    assert both.any()
    assert np.array_equal(standardized[0, both], standardized[1, both])
    assert np.array_equal(standardized[0, both], u[both])
    # both-copy events happen with probability rho3 = 0.5
    assert both.mean() == pytest.approx(0.5, abs=4.0 / math.sqrt(n))


def test_marginals_stay_normal_under_copying():
    sigma = (1.5, 1.0, 0.5)
    n = 10_000
    # 1% asymptotic Kolmogorov-Smirnov critical value
    critical = 1.63 / math.sqrt(n)
    for seed in (0, 1, 2):
        eps = copying_errors(sigma, RHO_HALF, n, seed=seed)
        for i in range(3):
            d = stats.kstest(eps[i], "norm", args=(0.0, sigma[i])).statistic
            assert d < critical


def test_empirical_correlations_match_targets():
    n = 100_000
    bound = 4.0 / math.sqrt(n)
    for rho in ((0.5, 0.5, 0.5), (0.3, 0.2, 0.4)):
        eps = copying_errors((1, 1, 1), rho, n, seed=11)
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
    with pytest.raises(ParameterError, match="^n must be an integer of at least 2$"):
        simulate_study(params(n=1), seed=0)
    # two are enough: the stream contract's rows 1-3, summarized
    data = np.random.default_rng(0).standard_normal((4, 2))[1:]
    study = simulate_study(params(n=2), seed=0)
    assert study.n == 2.0
    assert study.means == tuple(data.mean(axis=1).tolist())
    assert study.sds == tuple(data.std(axis=1, ddof=1).tolist())


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
    p = ModelParams(mu=(0, 0, 0), sigma=(1, 1, 1), n=20)
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
    few = (1000, 4 * simulate._BLOCK + 1)
    cases = [(n, sigma, thresholds, 23, few) for n in (2, 5, 20) for sigma in sigmas]
    # 4097 replications end one past a chunk of 16 blocks of 256; at
    # n = 1100 a block holds 238 replications, to bound its memory, so a
    # chunk holds 3808 and 4097 ends inside the second block of the next
    cases.append((20, sigmas[0], (2.0,), 23, few + (4096, 4097)))
    cases.append((1100, sigmas[0], (2.0,), 23, few + (4097,)))
    # seeds of one, two, three and five uint32 words
    seeds = (2**32 - 1, 2**32, 2**64, 10**40)
    cases += [(20, sigmas[0], (2.0,), seed, few + (4097,)) for seed in seeds]
    for n, sigma, vs, seed, reps_list in cases:
        p = ModelParams(mu=(0, 0, 0), sigma=sigma, n=n)
        lowers = [
            evidential_value(simulate_study(p, seed=(seed, rep)), Mode.PAPER).lower
            for rep in range(max(reps_list))
        ]
        for reps in reps_list:
            for v in vs:
                expected = sum(lower >= v for lower in lowers[:reps]) / reps
                report = null_exceedance(n=n, sigma=sigma, v_threshold=v, reps=reps, seed=seed)
                assert report.exceed_prob == expected, (n, sigma, reps, v, seed)


def test_block_seeding_draws_the_default_rng_streams(monkeypatch):
    # the PCG64 state words computed a chunk at a time are those default_rng
    # builds, and the buffers drawn from them are the same bit for bit,
    # whether each replication writes its words into the generator or, with
    # the layout probe failing, sets them through the state dict
    from evidential import simulate

    n = 20
    out = np.empty((256, 4, n))
    expected = np.empty_like(out)
    # seeds of one to five uint32 words: with k, SeedSequence's entropy
    # fills its pool of four words or runs past it
    for seed in (0, 1, 42, 2**31, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 10**40):
        # 2**32 - 256 starts the last block whose indices are one uint32
        # word; the range from 2**32 - 128 holds indices of one and of two
        for first in (0, 1, 1000, 2**32 - 256, 2**32 - 128):
            words = simulate._pcg64_states(seed, first, len(out))
            assert words.shape == (len(out), 4) and words.dtype == np.uint64
            for i, (low, high, inc_low, inc_high) in enumerate(words.tolist()):
                reference = np.random.default_rng((seed, first + i)).bit_generator.state
                assert reference["state"] == {
                    "state": high << 64 | low,
                    "inc": inc_high << 64 | inc_low,
                }, (seed, first + i)
            for i, row in enumerate(expected):
                np.random.default_rng((seed, first + i)).standard_normal(out=row)
            for direct in (True, False):
                bits = np.random.PCG64()
                # the setter the layout probe picks, and its dict fallback
                set_state = (
                    simulate._state_setter(bits) if direct else partial(simulate._set_state, bits)
                )
                normal = np.random.Generator(bits).standard_normal
                out[...] = np.nan
                simulate._standard_normals(out, words, set_state, normal)
                assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), (
                    seed, first, direct
                )


@pytest.mark.skipif(
    not (sys.platform == "linux" and platform.machine() == "x86_64"),
    reason="the PCG64 state layout is only known to be checked on x86-64 Linux",
)
def test_layout_probe_accepts_the_pcg64_state_words(monkeypatch):
    # a silent fallback to the dict setter would keep the bits but lose the
    # speed: on x86-64 Linux numpy's state is four little-endian words
    from evidential import simulate

    bits = np.random.PCG64()
    set_state = simulate._state_setter(bits)
    assert set_state.func is not simulate._set_state
    set_state(simulate._pcg64_states(42, 7, 1)[0])
    assert bits.state == np.random.default_rng((42, 7)).bit_generator.state
    # a state kept as (high, low) pairs, as numpy keeps it where the
    # compiler has no 128-bit integer, reads back out of order
    set_state = simulate._set_state

    def swapped(bits, w):
        return set_state(bits, (w[1], w[0], w[3], w[2]))

    monkeypatch.setattr(simulate, "_set_state", swapped)
    assert simulate._state_setter(np.random.PCG64()).func is swapped


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

    # one process, so that every engine call is made where it is counted
    processes(monkeypatch, 1)
    calls = count_engine_calls(monkeypatch)
    reps = 4 * simulate._BLOCK + 1
    null_exceedance(n=n, sigma=sigma, v_threshold=2.0, reps=reps, seed=42)
    assert len(calls) <= 0.01 * reps


def test_null_exceedance_band_path_equals_the_per_replication_loop(monkeypatch):
    # an infinite tolerance leaves every replication to the engine
    from evidential import simulate
    from evidential.engine import Mode, evidential_value

    p = ModelParams(mu=(0, 0, 0), sigma=(1.5, 0.7, 2.0), n=20)
    lowers = [
        evidential_value(simulate_study(p, seed=(5, rep)), Mode.PAPER).lower
        for rep in range(4097)
    ]
    # one process, so that every engine call is made where it is counted
    processes(monkeypatch, 1)
    calls = count_engine_calls(monkeypatch)
    monkeypatch.setattr(simulate, "_LOG_TOL", math.inf)
    # 4097 replications are a full chunk of 16 blocks and a chunk of one
    for reps in (1000, 4097):
        for v in (1.5, 2.0, 10.0):
            calls.clear()
            report = null_exceedance(n=20, sigma=p.sigma, v_threshold=v, reps=reps, seed=5)
            assert len(calls) == reps
            expected = sum(lower >= v for lower in lowers[:reps]) / reps
            assert report.exceed_prob == expected, (reps, v)


# --- replications split across processes -------------------------------------

def processes(monkeypatch, count):
    # forces the number of processes, whatever the threads and CPUs
    from evidential import _fork

    monkeypatch.setattr(_fork, "processes", lambda units, least: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runs_are_contiguous_and_balanced_by_replications(monkeypatch):
    from evidential import _fork

    assert _fork.runs(100_000, 2) == [(0, 50_000), (50_000, 100_000)]
    assert _fork.runs(12289, 3) == [(0, 4096), (4096, 8192), (8192, 12289)]
    # never more runs than units, and never an empty one
    assert _fork.runs(2, 3) == [(0, 1), (1, 2)]
    assert _fork.runs(1000, 1) == [(0, 1000)]
    for reps in (1, 2, 1000, 4096, 4097, 12289, 100_000):
        for count in range(1, 8):
            runs = _fork.runs(reps, count)
            assert len(runs) == min(reps, count)
            assert runs[0][0] == 0 and runs[-1][1] == reps
            assert all(start < stop for start, stop in runs)
            assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
            # their lengths differ by at most one
            lengths = [stop - start for start, stop in runs]
            assert max(lengths) - min(lengths) <= 1
    # simulate asks for 4 seeding chunks' worth a process: 16 384 at n = 20
    asked = []
    monkeypatch.setattr(_fork, "processes", lambda units, least: asked.append((units, least)) or 1)
    null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=1000, seed=0)
    assert asked == [(1000, 16_384)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_runs_give_the_one_process_report(monkeypatch):
    # at n = 1100 a block holds 238 replications and a chunk 3808: 4097
    # ends 289 replications into the second chunk, 7617 one into the third
    settings = [(20, seed, reps) for seed in (42, 2**32 - 1, 2**32) for reps in (4097, 12289)]
    settings += [(1100, 42, reps) for reps in (4097, 7617)]
    for n, seed, reps in settings:
        args = dict(n=n, sigma=(1.5, 0.7, 2.0), v_threshold=2.0, reps=reps, seed=seed)
        processes(monkeypatch, 1)
        expected = null_exceedance(**args)
        for count in (2, 3):
            processes(monkeypatch, count)
            assert null_exceedance(**args) == expected, (n, seed, reps, count)
            assert_no_child_left()
            assert gc.get_freeze_count() == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_an_error_in_the_first_run_is_the_serial_one_and_kills_the_children(monkeypatch):
    # every replication's sds overflow at 1e300, so the first run fails
    # while the children are still counting theirs
    processes(monkeypatch, 2)
    with pytest.raises(LedgerError) as info:
        null_exceedance(n=20, sigma=(1e300, 1, 1), v_threshold=2.0, reps=100_000, seed=42)
    assert str(info.value) == "study 'sim': sds must be finite"
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("count", [2, 3])
def test_an_error_in_a_childs_run_is_the_serial_one(monkeypatch, count):
    # at 2e153 an sd overflows now and then: with seed 18 first in
    # replications 8192..12288, the last run of both splits
    args = dict(n=20, sigma=(2e153, 1, 1), v_threshold=2.0, seed=18)
    processes(monkeypatch, 1)
    null_exceedance(reps=8192, **args)
    with pytest.raises(LedgerError) as serial:
        null_exceedance(reps=12289, **args)
    processes(monkeypatch, count)
    with pytest.raises(LedgerError) as forked:
        null_exceedance(reps=12289, **args)
    assert str(forked.value) == str(serial.value) == "study 'sim': sds must be finite"
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_run_whose_child_dies_is_counted_by_the_parent(monkeypatch):
    # a child that exits non-zero without a word: its run is counted again
    from evidential import simulate

    args = dict(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=12289, seed=42)
    processes(monkeypatch, 1)
    expected = null_exceedance(**args)
    parent, count_exceeding = os.getpid(), simulate._count_exceeding

    def dying(*a):
        if os.getpid() != parent:
            os._exit(3)
        return count_exceeding(*a)

    monkeypatch.setattr(simulate, "_count_exceeding", dying)
    processes(monkeypatch, 3)
    assert null_exceedance(**args) == expected
    assert_no_child_left()


@pytest.mark.parametrize("n", [2, 3, 5, 20, 101, 1100])
def test_block_summaries_are_numpys_mean_and_std_bit_for_bit(n):
    # one mean serves both summaries; the last sigma makes some sds overflow
    from evidential import simulate

    normals = np.random.default_rng(n).standard_normal((64, 3, n))
    for sigma in ((1, 1, 1), (1.5, 0.7, 2), (1e-150,) * 3, (1e150, 1, 1), (1e154, 1, 1)):
        with np.errstate(all="ignore"):
            data = np.asarray(sigma, dtype=float)[:, None] * normals
            means, sds = np.empty((2, len(data), 3))
            expected_means, expected_sds = data.mean(axis=2), data.std(axis=2, ddof=1)
        simulate._summaries(data, means, sds)
        assert np.array_equal(means.view(np.uint64), expected_means.view(np.uint64)), sigma
        assert np.array_equal(sds.view(np.uint64), expected_sds.view(np.uint64)), sigma
    assert np.isinf(sds[:, 0]).any()


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
    for n in (1, 0, -3):
        with pytest.raises(ParameterError, match="^n must be an integer of at least 2$"):
            null_exceedance(n=n, sigma=(1, 1, 1), v_threshold=2.0, reps=2000, seed=1)
    for sigma in ("1,2", "1,,1", "a,b,c", "1,1,1,", "inf,1,1", "nan,1,1"):
        with pytest.raises(ParameterError, match="^sigma must be three finite numbers$"):
            null_exceedance(n=20, sigma=sigma.split(","), v_threshold=2.0, reps=2000, seed=1)
    # reps and v are checked before sigma and n, seed after them
    args = {"n": 1, "sigma": (1, 1), "v_threshold": 1.0, "reps": 0, "seed": -1}
    good = {"n": 20, "sigma": (1, 1, 1), "v_threshold": 2.0, "reps": 1000, "seed": 1}
    for field, problem in (("reps", "reps"), ("v_threshold", "v"), ("sigma", "sigma"),
                           ("n", "n"), ("seed", "seed")):
        with pytest.raises(ParameterError, match=f"^{problem} must "):
            null_exceedance(**args)
        args[field] = good[field]
    for seed in (-1, 1.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="^seed must be a non-negative integer$"):
            null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=2000, seed=seed)
    for reps in (1000.5, 999, math.inf):
        with pytest.raises(ParameterError, match="^reps must be an integer of at least 1000$"):
            null_exceedance(n=20, sigma=(1, 1, 1), v_threshold=2.0, reps=reps, seed=1)


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
