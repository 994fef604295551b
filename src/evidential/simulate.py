"""Synthetic three-cell data under integrity and under error copying.

The copying mechanism models one concrete way to fake correlated cells:
with shared standard normal draws U_j and private draws V_ij, the error of
cell i in column j is

    eps_ij = sigma_i * (Delta_ij * U_j + (1 - Delta_ij) * V_ij)

where the Delta_ij are independent Bernoulli indicators with

    P(Delta_1j = 1) = sqrt(rho2*rho3 / rho1)
    P(Delta_2j = 1) = sqrt(rho1*rho3 / rho2)
    P(Delta_3j = 1) = sqrt(rho1*rho2 / rho3)

Whenever two cells both copy a column (both Deltas are 1), their
standardized errors coincide exactly; the construction realizes pairwise
correlations (rho3, rho2, rho1) between cells (1,2), (1,3) and (2,3).
The probabilities only exist when all rho_i are positive and each pairwise
product is dominated by the third coordinate; the independence null
(rho = 0) is the Delta == 0 special case.

All randomness is drawn from numpy Generators seeded per replication with
(seed, replication index), so Monte Carlo results are reproducible
bit-for-bit regardless of how replications are scheduled.  numpy is
imported on first use (the module attribute ``np``), so importing this
module, and the commands that never simulate, need the stdlib only.

:func:`null_exceedance` evaluates replications in blocks: one draw call
per replication into a shared buffer (the stream of :func:`simulate_study`;
where the seed and every index of a block fit one 32-bit word, the block's
PCG64 states are computed at once, see :func:`_pcg64_states`), the means
and sds of the whole block in numpy (the same operations, so the same
floats), and then a decision in numpy by the engine's own formula,
:func:`~evidential.engine.log_value`.  log V is non-increasing in
``r = |Z_V|`` and in the floor ratio ``q``, and the engine's r and q lie
between those of the float contrast lowered and raised by a bound on its
rounding error and of q lowered and raised by a few ulps.  So a
replication counts when log V at the high ends reaches log v, and cannot
count when log V at the low ends stays below it, each by a margin far
above the float error.  Only the thin band between the two, invalid rows
and rows with a zero paper floor are decided by
:func:`~evidential.engine.evidential_value`, so the estimate is the
per-replication loop's, bit for bit.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .engine import Mode, evidential_value
from .geometry import CorrelationTriple
from .ledger import StudySummary

__all__ = [
    "ModelParams",
    "ParameterError",
    "SimulationReport",
    "copy_probabilities",
    "generate_errors",
    "null_exceedance",
    "simulate_study",
]


def _numpy():
    # the module global np, bound by the first call (or by whoever sets
    # simulate.np first)
    global np
    try:
        return np
    except NameError:
        import numpy as np

        return np


def __getattr__(name):
    # reading simulate.np from outside loads numpy as well
    if name == "np":
        return _numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ParameterError(ValueError):
    """Invalid simulation parameters."""


class ModelParams(namedtuple("ModelParams", "mu sigma rho n")):
    """Ground-truth parameters of one simulated study, checked when made."""

    __slots__ = ()

    def __new__(cls, mu, sigma, rho, n):
        mu = tuple(float(x) for x in mu)
        sigma = tuple(float(s) for s in sigma)
        if not isinstance(rho, CorrelationTriple):
            rho = CorrelationTriple(*rho)
        if len(mu) != 3 or len(sigma) != 3:
            raise ParameterError("mu and sigma must have exactly three entries")
        if not all(math.isfinite(x) for x in mu + sigma):
            raise ParameterError("mu and sigma must be finite")
        if any(s <= 0 for s in sigma):
            raise ParameterError("sigma must be positive")
        if int(n) != n or n < 1:
            raise ParameterError("n must be a positive integer")
        return super().__new__(cls, mu, sigma, rho, int(n))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


def copy_probabilities(rho) -> tuple[float, float, float]:
    """Per-cell Bernoulli copy probabilities for the target correlations.

    Returns (0, 0, 0) for the independence null.  Raises
    :class:`ParameterError` naming the violated product condition when a
    probability would fall outside [0, 1].
    """
    r1, r2, r3 = rho
    if r1 == 0.0 and r2 == 0.0 and r3 == 0.0:
        return (0.0, 0.0, 0.0)
    if not (r1 > 0 and r2 > 0 and r3 > 0):
        raise ParameterError(
            "the copying mechanism needs all rho_i > 0 (or all zero for the null), "
            f"got {tuple(rho)}"
        )
    conditions = (
        (r2 * r3, r1, "rho2*rho3 <= rho1"),
        (r1 * r3, r2, "rho1*rho3 <= rho2"),
        (r1 * r2, r3, "rho1*rho2 <= rho3"),
    )
    for product, bound, label in conditions:
        if product > bound:
            raise ParameterError(
                f"copy probability would exceed 1: condition {label} is violated "
                f"({product:.6g} > {bound:.6g})"
            )
    return (
        math.sqrt(r2 * r3 / r1),
        math.sqrt(r1 * r3 / r2),
        math.sqrt(r1 * r2 / r3),
    )


def generate_errors(params: ModelParams, seed) -> np.ndarray:
    """Draw the 3 x n error matrix for one study.

    Deterministic given *seed* (anything acceptable to
    :func:`numpy.random.default_rng`).  Draw order is fixed: shared column
    draws U, private draws V, then the copy indicators.
    """
    np = _numpy()
    probs = copy_probabilities(params.rho)
    rng = np.random.default_rng(seed)
    n = params.n
    u = rng.standard_normal(n)
    v = rng.standard_normal((3, n))
    if probs == (0.0, 0.0, 0.0):
        standardized = v
    else:
        delta = rng.random((3, n)) < np.asarray(probs)[:, None]
        standardized = np.where(delta, u[None, :], v)
    return np.asarray(params.sigma)[:, None] * standardized


def simulate_study(params: ModelParams, seed, label: str = "sim") -> StudySummary:
    """Simulate one study and summarize it like a publication would."""
    if params.n < 2:
        raise ParameterError("n >= 2 required for sample sd")
    eps = generate_errors(params, seed)
    np = _numpy()
    # an sd that overflows or vanishes is refused by StudySummary
    with np.errstate(all="ignore"):
        data = np.asarray(params.mu)[:, None] + eps
        means = data.mean(axis=1)
        sds = data.std(axis=1, ddof=1)
    return StudySummary(
        id=label,
        n=float(params.n),
        means=tuple(means.tolist()),
        sds=tuple(sds.tolist()),
    )


class SimulationReport(
    namedtuple("SimulationReport", "reps seed v_threshold exceed_prob mc_stderr")
):
    """Monte Carlo estimate of a null exceedance probability."""

    __slots__ = ()


#: replications drawn and summarized together: enough to spread numpy's
#: per-call cost, few enough to keep the block's arrays small (4096 raised
#: the peak memory of a 100 000-replication run from 36 to 50 MB)
_BLOCK = 256

#: most values drawn per block (8 MB of floats): where _BLOCK replications
#: of 4*n draws each would exceed it, a block holds fewer
_BLOCK_DRAWS = 1 << 20

#: half-width in log V of the band left to the engine: orders of magnitude
#: above the float error (under 1e-12) of log(v), of log V and of the engine
_LOG_TOL = 1e-9

#: |float contrast - decimal contrast| is below _SLACK * (|x1| + 2|x2| + |x3|)
#: + _SLACK_FLOOR, and the engine's q is within 4 * _SLACK of numpy's
_SLACK, _SLACK_FLOOR = 4.0 * sys.float_info.epsilon, 2.0**-1070

#: numpy's SeedSequence hashing constants and PCG64's 128-bit multiplier,
#: fixed by its documented seeding (NEP 19 keeps seeded streams stable)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD = 1 << 32


def _pcg64_states(seed, first, count):
    """The PCG64 ``(state, inc)`` of ``default_rng((seed, k))`` for the
    *count* replications k from *first* on; *seed* and every k must be
    below 2**32.

    SeedSequence turns the entropy words [seed, k] into a pool of 4 words
    and hashes the pool into the 4 uint64 words w0..w3 of
    ``generate_state(4, uint64)``; PCG64 seeds itself from ``w0:w1`` and
    ``w2:w3`` as 128-bit numbers.  The uint32 steps run on arrays with one
    element per replication, the 128-bit ones on Python ints.
    """
    np = _numpy()

    def hasher(const, mult):
        # SeedSequence's hash, whose constant steps on with every call
        def hash_word(value):
            nonlocal const
            value = value ^ const
            const = const * mult % _WORD
            value = value * const
            return value ^ (value >> 16)

        return hash_word

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, np.uint32)
    entropy = (zero + seed, np.arange(first, first + count, dtype=np.uint32), zero, zero)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    hash_out = hasher(_INIT_B, _MULT_B)
    halves = [hash_out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # little-endian pairs of uint32 words make the uint64 words
    words = [(halves[2 * k] | halves[2 * k + 1] << 32).tolist() for k in range(4)]
    states = []
    for w0, w1, w2, w3 in zip(*words):
        inc = ((w2 << 64 | w3) << 1 | 1) % (1 << 128)
        states.append((((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) % (1 << 128), inc))
    return states


def _standard_normals(out, seed, first, generator):
    """Fill ``out[i]`` with the first standard normals that
    ``default_rng((seed, first + i))`` draws.

    *generator* is a reused ``Generator`` over a ``PCG64``: where *seed* and
    every replication index fit one uint32 word, it is set to each
    replication's state in turn; otherwise each replication builds its own
    ``default_rng``.
    """
    if seed < _WORD and first + len(out) <= _WORD:
        bits, normal = generator.bit_generator, generator.standard_normal
        # PCG64 copies the numbers out of the dict, so one dict serves the block
        inner = {}
        state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
        states = _pcg64_states(seed, first, len(out))
        for row, (inner["state"], inner["inc"]) in zip(out, states):
            bits.state = state
            normal(out=row)
    else:
        default_rng = _numpy().random.default_rng
        for i, row in enumerate(out):
            default_rng((seed, first + i)).standard_normal(out=row)


def _log_values(r, q):
    """:func:`~evidential.engine.log_value` elementwise."""
    np = _numpy()
    r = np.minimum(r, 1.0)
    s = np.maximum(r, q)
    t = r / s
    return -np.log(s) + 0.5 * (r * r - t * t)


def null_exceedance(n, sigma, v_threshold, reps, seed) -> SimulationReport:
    """Estimate P(V >= v) under data integrity by Monte Carlo.

    Draws *reps* independent studies with independent errors and means on
    the linear constraint (mu = 0 without loss of generality: V depends on
    the means only through the contrast), evaluates the paper-mode
    evidential value of each, and counts a study as exceeding when its
    lower bound reaches *v_threshold* (the conservative reading of an
    interval).  Replication k uses the random stream ``default_rng((seed,
    k))``, so the estimate is independent of scheduling and reproducible
    bit-for-bit.  Blocks of replications are decided in numpy from log V
    at both ends of the rounding intervals of r and q (see the module
    docstring); the count is that of evaluating every
    :func:`simulate_study`.
    """
    if reps < 1000:
        raise ParameterError("reps must be at least 1000")
    if not 1.0 < v_threshold < math.inf:
        raise ParameterError("v must exceed 1 and be finite")
    params = ModelParams(mu=(0.0, 0.0, 0.0), sigma=tuple(sigma), rho=(0.0, 0.0, 0.0), n=int(n))
    if params.n < 2:
        raise ParameterError("n >= 2 required for sample sd")
    seed = int(seed)
    if seed < 0:
        raise ParameterError("seed must be a non-negative integer")
    np = _numpy()
    generator = np.random.Generator(np.random.PCG64())
    mu = np.asarray(params.mu)[:, None]
    scale = np.asarray(params.sigma)[:, None]
    n_float, log_v = float(params.n), math.log(v_threshold)
    root_n = math.sqrt(n_float)
    block_reps = max(1, min(_BLOCK, _BLOCK_DRAWS // (4 * params.n)))
    draws = np.empty((block_reps, 4, params.n))
    count = 0
    for first in range(0, reps, block_reps):
        block = draws[: min(block_reps, reps - first)]
        # row 0 is generate_errors' u draw, rows 1-3 its v draws
        _standard_normals(block, seed, first, generator)
        with np.errstate(all="ignore"):
            data = mu + scale * block[:, 1:]
            means = data.mean(axis=2)
            sds = data.std(axis=2, ddof=1)
            # Both sides work in the same power-of-two unit.  The decimal z
            # is within 2**-1073 + eps/2 of the exact sum of the means, the
            # float contrast within 1.5*eps*(|x1| + 2|x2| + |x3|) of it, so
            # the engine's r lies between r_low and r_high up to the few eps
            # of its own s0, and its own hypot keeps its q within 8 eps of
            # this q.  Other rows, invalid ones among them, are built as
            # studies: the first invalid one raises.
            unit = np.ldexp(1.0, np.frexp(sds.max(axis=1))[1] - 1)
            s1, s2, s3 = (sds / unit[:, None]).T
            s0 = np.hypot(np.hypot(s1, 2.0 * s2), s3)
            gap = np.minimum(np.abs(2.0 * s2 - (s1 + s3)), np.abs(2.0 * s2 - np.hypot(s1, s3)))
            q = np.minimum(gap, s0) / s0
            x1, x2, x3 = means.T
            slack = _SLACK * (np.abs(x1) + 2.0 * np.abs(x2) + np.abs(x3)) + _SLACK_FLOOR
            contrast = np.abs(x1 - 2.0 * x2 + x3)
            decided = (np.isfinite(means) & np.isfinite(sds) & (sds > 0.0)).all(axis=1) & (q > 0.0)
            r_low = root_n * (np.maximum(contrast - slack, 0.0) / unit) / s0
            r_high = root_n * ((contrast + slack) / unit) / s0
            high = _log_values(r_high, q + 4.0 * _SLACK)
            low = _log_values(r_low, q - 4.0 * _SLACK)
            counted = decided & (high >= log_v + _LOG_TOL)
            band = ~(counted | decided & (low < log_v - _LOG_TOL))
        count += int(np.count_nonzero(counted))
        rows = np.flatnonzero(band)
        for row_means, row_sds in zip(means[rows].tolist(), sds[rows].tolist()):
            study = StudySummary(id="sim", n=n_float, means=tuple(row_means), sds=tuple(row_sds))
            if evidential_value(study, Mode.PAPER).lower >= v_threshold:
                count += 1
    p = count / reps
    return SimulationReport(reps, seed, float(v_threshold), p, math.sqrt(p * (1.0 - p) / reps))
