"""Monte Carlo calibration of V under data integrity.

Stream contract, for any non-negative integer seed: replication k of
:func:`null_exceedance` draws 4n standard normals from
``default_rng((seed, k))``; rows 1-3 are the errors of the three cells,
and row 0 is drawn but not used.  So Monte Carlo results are reproducible
bit-for-bit however the replications are scheduled.  numpy is imported on
first use (the module attribute ``np``), so importing this module, and the
commands that never simulate, need the stdlib only.  Nothing here
multiplies matrices: this module loads numpy with one OpenBLAS thread, for
every caller, unless the caller set ``OPENBLAS_NUM_THREADS``.

:func:`null_exceedance` runs one loop per chunk of 16 blocks of
replications.  It computes the chunk's PCG64 state words on uint64 limbs
in one call (:func:`_pcg64_states`).  Then, block by block, each
replication writes its words into the generator's memory (through its
state dict where a probe of that memory fails, see :func:`_state_setter`)
and draws into a shared buffer, and one pass that forms each mean once
gives the means and sds of the whole block (:func:`_summaries`, the same
floats as :func:`simulate_study`'s ``mean`` and ``std``).  The chunk is
then decided at once in numpy by the engine's own formula,
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

:func:`evidential._fork.forked_map` cuts the chunks into contiguous runs
of at least ``_PROCESS_CHUNKS`` whole chunks, one per CPU: the first run
is counted here, each other run in a child forked once numpy (with its
one OpenBLAS thread, so that this process runs the one OS thread a fork
needs), the generator and the buffers exist.  The estimate is a sum of
per-replication integer decisions, each drawn from its own stream, so it
is the same however the runs are split, and an error is the one a serial
run raises.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from functools import partial

from . import _fork
from .engine import Mode, evidential_value
from .ledger import StudySummary

__all__ = [
    "ModelParams",
    "ParameterError",
    "SimulationReport",
    "generate_errors",
    "null_exceedance",
    "simulate_study",
]


def _numpy():
    # the module global np, bound by the first call (or by whoever sets
    # simulate.np first).  Nothing here multiplies matrices, so an OpenBLAS
    # worker pool would only cost start-up time and keep _fork.processes at 1;
    # OpenBLAS reads its thread count once, as it loads, and a caller's own
    # setting, or a numpy already loaded, is left alone
    global np
    if "np" in globals():
        return np
    one_thread = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return np


def __getattr__(name):
    # reading simulate.np from outside loads numpy as well
    if name == "np":
        return _numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ParameterError(ValueError):
    """Invalid simulation parameters."""


def _whole(value, least, message):
    # value as an int, when it is a whole number of at least *least*
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(message) from None
    if whole != value or whole < least:
        raise ParameterError(message)
    return whole


class ModelParams(namedtuple("ModelParams", "mu sigma n")):
    """Ground-truth parameters of one simulated study, checked when made."""

    __slots__ = ()

    def __new__(cls, mu, sigma, n):
        mu = tuple(float(x) for x in mu)
        sigma = tuple(float(s) for s in sigma)
        if len(mu) != 3 or len(sigma) != 3:
            raise ParameterError("mu and sigma must have exactly three entries")
        if not all(math.isfinite(x) for x in mu + sigma):
            raise ParameterError("mu and sigma must be finite")
        if any(s <= 0 for s in sigma):
            raise ParameterError("sigma must be positive")
        return super().__new__(cls, mu, sigma, _whole(n, 1, "n must be a positive integer"))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


def generate_errors(params: ModelParams, seed) -> np.ndarray:
    """Draw the 3 x n error matrix of one study, independent across cells.

    Deterministic given *seed* (anything acceptable to
    :func:`numpy.random.default_rng`): rows 1-3 of its first 4 x n
    standard normals, scaled by sigma, as in the stream contract.
    """
    np = _numpy()
    normals = np.random.default_rng(seed).standard_normal((4, params.n))
    return np.asarray(params.sigma)[:, None] * normals[1:]


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
#: of 4*n draws each would exceed it, a block holds fewer; and the blocks
#: seeded by one call of _pcg64_states (4096 replications at most)
_BLOCK_DRAWS, _CHUNK_BLOCKS = 1 << 20, 16

#: half-width in log V of the band left to the engine: orders of magnitude
#: above the float error (under 1e-12) of log(v), of log V and of the engine
_LOG_TOL = 1e-9

#: |float contrast - decimal contrast| is below _SLACK * (|x1| + 2|x2| + |x3|)
#: + _SLACK_FLOOR, and the engine's q is within 4 * _SLACK of numpy's
_SLACK, _SLACK_FLOOR = 4.0 * sys.float_info.epsilon, 2.0**-1070

#: fewest whole seeding chunks worth a process of their own.  A fork and
#: its reaping take about 2 ms.  On a 2-CPU VM at n = 20, 8 chunks took
#: 80-91 ms in two processes against 135-158 ms in one; at 1 or 2 chunks
#: per process the split lost whenever the scheduler kept the child on its
#: parent's CPU (2 chunks: 46 ms against 36 ms)
_PROCESS_CHUNKS = 4

#: numpy's SeedSequence hash constants and PCG64's multiplier (low and high
#: words), fixed by its documented seeding (NEP 19 keeps seeded streams stable)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_LOW, _PCG64_MULT_HIGH = 0x4385DF649FCCF645, 0x2360ED051FC65DA4
_WORD, _LOW32 = 1 << 32, 0xFFFFFFFF


def _words(value):
    # SeedSequence's uint32 words of a non-negative int, least significant first
    return [value >> shift & _LOW32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _pcg64_states(seed, first, count):
    """The PCG64 states of ``default_rng((seed, k))`` for the *count*
    replications k from *first* on, as uint64 rows of state low, state
    high, inc low and inc high.  SeedSequence hashes the uint32 words of
    seed and then of k, zero-padded to its 4-word pool and mixed in by one
    more round each past the fourth, into the words w0..w3 from which PCG64
    seeds itself; here on arrays with one element per replication (128 bits
    as two uint64 limbs).
    """
    np = _numpy()
    cut = (first | _LOW32) + 1
    if first + count > cut:
        # k's words above the lowest change at each multiple of 2**32
        head = _pcg64_states(seed, first, cut - first)
        return np.concatenate((head, _pcg64_states(seed, cut, first + count - cut)))

    def hasher(const, mult):
        # SeedSequence's hash, whose constant steps on with every call
        def hash_word(value):
            nonlocal const
            value = value ^ const
            const = const * mult % _WORD
            value = value * const
            return value ^ (value >> 16)

        return hash_word

    def mix(x, y):
        mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
        return mixed ^ (mixed >> 16)

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, np.uint32)
    k_low, *k_high = _words(first)
    k = np.arange(k_low, k_low + count, dtype=np.uint32)
    entropy = [zero + word for word in _words(seed)] + [k] + [zero + word for word in k_high]
    entropy += [zero] * (4 - len(entropy))
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_out = hasher(_INIT_B, _MULT_B)
    halves = [hash_out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # little-endian pairs of uint32 words make the uint64 words
    w0, w1, w2, w3 = (halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4))
    # state = (inc + w0:w1) * MULT + inc mod 2**128, where inc = 2 * w2:w3 + 1
    inc_low, inc_high = w3 << 1 | 1, w2 << 1 | w3 >> 63
    low = inc_low + w1
    high = inc_high + w0 + (low < w1)
    # times MULT: the high word takes the top of low * MULT_LOW, from 32-bit halves
    a0, a1, b0, b1 = low & _LOW32, low >> 32, _PCG64_MULT_LOW & _LOW32, _PCG64_MULT_LOW >> 32
    mid = (a0 * b0 >> 32) + (a0 * b1 & _LOW32) + (a1 * b0 & _LOW32)
    high = high * _PCG64_MULT_LOW + low * _PCG64_MULT_HIGH + a1 * b1
    high += (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32) + inc_high
    low = low * _PCG64_MULT_LOW + inc_low
    return np.stack((low, high + (low < inc_low), inc_low, inc_high), axis=1)


def _set_state(bits, words):
    """Set PCG64 *bits* to the state of four words through its dict."""
    low, high, inc_low, inc_high = map(int, words)
    state = {"state": high << 64 | low, "inc": inc_high << 64 | inc_low}
    bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


def _state_setter(bits):
    """Set PCG64 *bits* to a row of :func:`_pcg64_states`: straight into a
    uint64 view of its state words where four distinct words set through
    the dict read back there in the order of the rows (as where the
    compiler has ``__uint128_t``), else through the dict.  The dict set
    leaves ``has_uint32`` at 0, which ``standard_normal`` never sets, so
    the words are all it reads."""
    import ctypes  # here, so that loading the command line never loads it
    # numpy's pcg64_state begins with a pointer to the state and increment
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    view = _numpy().ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
    _set_state(bits, (1, 2, 3, 5))
    if view.tolist() == [1, 2, 3, 5]:
        return partial(view.__setitem__, ...)
    return partial(_set_state, bits)


def _standard_normals(out, words, set_state, normal):
    """Fill ``out[i]`` by *normal* after ``set_state(words[i])``."""
    for row, state in zip(out, words):
        set_state(state)
        normal(out=row)


def _log_values(r, q):
    """:func:`~evidential.engine.log_value` elementwise."""
    np = _numpy()
    r = np.minimum(r, 1.0)
    s = np.maximum(r, q)
    t = r / s
    return -np.log(s) + 0.5 * (r * r - t * t)


def _summaries(data, n, means, sds):
    """Write ``data.mean(axis=2)`` into *means* and ``data.std(axis=2,
    ddof=1)`` into *sds*, bit for bit, from one mean: the ufunc steps of
    numpy's own ``_mean`` and ``_var``.  *data* is overwritten.
    """
    np = _numpy()
    with np.errstate(all="ignore"):
        mean = np.add.reduce(data, axis=2, keepdims=True)
        mean /= n
        means[...] = mean[..., 0]
        np.subtract(data, mean, out=data)
        np.square(data, out=data)
        np.add.reduce(data, axis=2, out=sds)
        sds /= n - 1
        np.sqrt(sds, out=sds)


def _count_exceeding(means, sds, n, v_threshold):
    """How many rows of *means* and *sds* (one study of size *n* each)
    have a paper-mode V whose lower end reaches *v_threshold*."""
    np = _numpy()
    n_float, log_v = float(n), math.log(v_threshold)
    root_n = math.sqrt(n_float)
    with np.errstate(all="ignore"):
        # Both sides work in the same power-of-two unit.  The decimal z is
        # within 2**-1073 + eps/2 of the exact sum of the means, the float
        # contrast within 1.5*eps*(|x1| + 2|x2| + |x3|) of it, so the
        # engine's r lies between r_low and r_high up to the few eps of its
        # own s0, and its own hypot keeps its q within 8 eps of this q.
        # Other rows, invalid ones among them, are built as studies: the
        # first invalid one raises.
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
    count = int(np.count_nonzero(counted))
    rows = np.flatnonzero(band)
    for row_means, row_sds in zip(means[rows].tolist(), sds[rows].tolist()):
        study = StudySummary(id="sim", n=n_float, means=tuple(row_means), sds=tuple(row_sds))
        if evidential_value(study, Mode.PAPER).lower >= v_threshold:
            count += 1
    return count


def null_exceedance(n, sigma, v_threshold, reps, seed) -> SimulationReport:
    """Estimate P(V >= v) under data integrity by Monte Carlo.

    Draws *reps* independent studies with independent errors and means on
    the linear constraint (mu = 0 without loss of generality: V depends on
    the means only through the contrast), and counts a study when the
    lower end of its paper-mode V reaches *v_threshold* (the conservative
    reading of an interval).  Replication k draws by the stream contract,
    and the count is that of every :func:`simulate_study` evaluated (see
    the module docstring).
    """
    reps = _whole(reps, 1000, "reps must be an integer of at least 1000")
    if not 1.0 < v_threshold < math.inf:
        raise ParameterError("v must exceed 1 and be finite")
    params = ModelParams(mu=(0.0, 0.0, 0.0), sigma=tuple(sigma), n=n)
    if params.n < 2:
        raise ParameterError("n >= 2 required for sample sd")
    seed = _whole(seed, 0, "seed must be a non-negative integer")
    np = _numpy()
    scale = np.asarray(params.sigma)[:, None]
    block_reps = max(1, min(_BLOCK, _BLOCK_DRAWS // (4 * params.n)))
    draws = np.empty((block_reps, 4, params.n))
    # the summaries of one seeding chunk, decided together
    means, sds = np.empty((2, _CHUNK_BLOCKS * block_reps, 3))
    bits = np.random.PCG64()
    set_state, normal = _state_setter(bits), np.random.Generator(bits).standard_normal

    def count_run(start, stop):
        # how many of the replications start..stop-1 count, chunk by chunk
        total = 0
        for chunk in range(start, stop, len(means)):
            words = _pcg64_states(seed, chunk, min(len(means), stop - chunk))
            for first in range(0, len(words), block_reps):
                block = draws[: len(words) - first]
                last = first + len(block)
                _standard_normals(block, words[first:], set_state, normal)
                with np.errstate(all="ignore"):
                    data = scale * block[:, 1:]
                _summaries(data, params.n, means[first:last], sds[first:last])
            total += _count_exceeding(means[: len(words)], sds[: len(words)], params.n, v_threshold)
        return total

    count = sum(_fork.forked_map(count_run, reps, len(means), _PROCESS_CHUNKS))
    p = count / reps
    return SimulationReport(reps, seed, float(v_threshold), p, math.sqrt(p * (1.0 - p) / reps))
