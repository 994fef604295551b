"""Evidential value of a study and related diagnostics.

The evidential value V of one study is the likelihood ratio of the
observed mean contrast ``z = x1 - 2*x2 + x3`` under the fabrication
hypothesis (correlated errors, variance at most the independence
variance) versus the integrity hypothesis (independent errors), with the
cell standard deviations plugged in as known scales:

    V = sup_{admissible rho, s(rho) <= s0} f_n(z; s(rho)) / f_n(z; s0)

where ``f_n(z; s)`` is the N(0, s^2/n) density and ``s0^2 = s1^2 + 4*s2^2
+ s3^2``.  The achievable contrast variances form the interval
[s_L^2, s0^2], so V depends on a study only through ``r = sqrt(n)*|z|/s0``
(which is ``|Z_V|``) and ``q = s_L/s0``.  The density is largest at the
achievable sd nearest ``sqrt(n)*|z|``, that is at ``s*s0`` with
``s = min(1, max(r, q))``, and one formula covers every regime:

    log V = -log(s) + (r^2 - (r/s)^2) / 2

The regimes are named after where r falls:

* ``above``  (r > 1, so s = 1): V = 1, the data are at least as dispersed
  as independence predicts; nothing to explain.
* ``middle`` (q <= r <= 1, so s = r): ``V = exp(-log(r) + (r^2 - 1)/2)``.
* ``below``  (r < q, so s = q): the density is decreasing in the variance
  on the achievable interval, so the supremum sits at the variance floor.

Both floors come from :func:`~evidential.geometry.variance_profile`.  In
``paper`` mode the floor is the computable proxy, only an upper bound for
the true floor, so the below-regime yields an interval [value at proxy
floor, unconstrained maximum at ``s = min(1, r)``].  In ``exact`` mode
the floor is the closed-form infimum over the valid correlation region
and the below-regime collapses to a point.
V is never below 1: this screen produces no exculpatory evidence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum

from .geometry import variance_profile

__all__ = [
    "Case",
    "CombinedEvidence",
    "EvidentialValue",
    "Mode",
    "combine",
    "empirical_tail_fraction",
    "evidential_value",
    "log_value",
    "null_tail_probability",
    "profile_value",
    "threshold_ratio",
    "z_c_statistic",
    "z_v_statistic",
]

_SQRT2 = math.sqrt(2.0)


class Mode(str, Enum):
    """Which variance floor the evidential value is computed against."""

    PAPER = "paper"
    EXACT = "exact"


class Case(str, Enum):
    """Regime of n*z^2 relative to [variance floor, s0^2]."""

    MIDDLE = "middle"
    BELOW = "below"
    ABOVE = "above"


class EvidentialValue(namedtuple("EvidentialValue", "lower upper case mode")):
    """A point value (lower == upper) or interval for V.

    ``math.inf`` is the distinguished unbounded upper end; it is produced
    deliberately (zero contrast with a vanishing variance floor), never as
    an overflow artifact: a V beyond the float range raises
    ``OverflowError``.
    """

    __slots__ = ()

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.upper)


def log_value(r: float, q: float) -> float:
    """log V of a study with ``|Z_V| = r`` and variance floor ``(q*s0)^2``.

    ``-log(s) + (r^2 - (r/s)^2)/2`` with ``s = min(1, max(r, q))``, for
    ``r >= 0`` and ``0 <= q <= 1``, not both zero.  It is continuous and
    non-increasing in r and in q.
    """
    r = min(r, 1.0)  # V = 1 from r = 1 on; this keeps r^2 finite
    s = max(r, q)
    t = r / s
    return -math.log(s) + 0.5 * (r * r - t * t)


def _value(r, q):
    # the density ratio grows without bound as the variance drops to zero
    # at a zero contrast; math.exp raises OverflowError beyond the float range
    return math.inf if r == q == 0.0 else max(1.0, math.exp(log_value(r, q)))


def evidential_value(study, mode: Mode | str = Mode.PAPER) -> EvidentialValue:
    """Evidential value of one study in favor of fabrication.

    ``paper`` mode reproduces the published bounds; ``exact`` mode uses the
    closed-form variance infimum and always returns a point value
    (possibly the distinguished unbounded one).
    """
    return profile_value(variance_profile(study), Mode(mode))


def profile_value(profile, mode: Mode) -> EvidentialValue:
    """:func:`evidential_value` from a study's variance *profile*."""
    r = abs(profile.z_v)
    q = profile.q_exact if mode is Mode.EXACT else profile.q_paper
    lower = upper = _value(r, q)
    if r > 1.0:
        case = Case.ABOVE
    elif r < q or r == 0.0:
        case = Case.BELOW
        if mode is Mode.PAPER:
            upper = max(lower, _value(r, 0.0))
    else:
        case = Case.MIDDLE
    return EvidentialValue(lower, upper, case, mode)


def z_v_statistic(study) -> float:
    """Standardized contrast sqrt(n)*z / sqrt(s1^2 + 4*s2^2 + s3^2).

    Approximately standard normal when the cell means follow the linear
    constraint; values near zero are what inflate the evidential value.
    """
    return variance_profile(study).z_v


def z_c_statistic(study) -> float:
    """Standardized contrast with pooled denominator sqrt(2*(s1^2+s2^2+s3^2))."""
    return variance_profile(study).z_c


def threshold_ratio(v: float) -> float:
    """Invert the middle-regime value: largest |Z_V| still giving V >= v.

    With ``r = |Z_V|`` in (0, 1] the middle-regime value is
    ``V = exp(-log(r) + (r^2 - 1)/2)``, which falls from +inf to 1.  The
    root of ``h(u) = -u + expm1(2*u)/2 - log(v)`` in ``u = log(r)`` is
    found by bisection down to adjacent floats, so the result is accurate
    to a few ulps of ``u`` for any finite v > 1, also where ``r^2``
    underflows; then ``V >= v`` iff ``|Z_V| <= threshold_ratio(v)``.
    """
    if not 1.0 < v < math.inf:
        raise ValueError("v must exceed 1 and be finite")
    log_v = math.log(v)

    def h(u):
        return -u + 0.5 * math.expm1(2.0 * u) - log_v

    # h decreases on u <= 0; h(0) < 0, and h(u) > -u - 1/2 - log(v) >= 0
    # at the left end of the bracket
    lo, hi = -1.0 - log_v, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return math.exp(lo)
        if h(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


def null_tail_probability(v: float) -> float:
    """P(V >= v) under data integrity, treating Z_V as standard normal."""
    r = threshold_ratio(v)
    return math.erf(r / _SQRT2)


def empirical_tail_fraction(values: Sequence[EvidentialValue], v: float) -> float:
    """Observed fraction of studies with V >= v (by their lower bounds).

    The empirical counterpart of :func:`null_tail_probability`, useful when
    a corpus of comparable studies serves as the reference population.
    """
    if not values:
        raise ValueError("no studies")
    return sum(1 for ev in values if ev.lower >= v) / len(values)


class CombinedEvidence(
    namedtuple(
        "CombinedEvidence",
        "product_lower product_upper prior_odds posterior_odds_lower posterior_odds_upper",
    )
):
    """Product of per-study evidential values and the resulting odds."""

    __slots__ = ()


def combine(values: Sequence[EvidentialValue], prior_odds: float = 1.0) -> CombinedEvidence:
    """Multiply evidential values of independent studies into overall odds.

    Interval-valued entries are combined by interval arithmetic; an
    unbounded upper end is absorbing.  Posterior odds are
    ``prior_odds * product`` on both ends.
    """
    if not values:
        raise ValueError("no studies")
    if not prior_odds > 0:
        raise ValueError("prior_odds must be positive")
    ends = []
    for factors in ([ev.lower for ev in values], [ev.upper for ev in values]):
        product = math.prod(factors)
        if math.isinf(prior_odds * product) and all(map(math.isfinite, factors)):
            raise OverflowError("the product of the values exceeds the float range")
        ends.append(product)
    return CombinedEvidence(
        product_lower=ends[0],
        product_upper=ends[1],
        prior_odds=prior_odds,
        posterior_odds_lower=prior_odds * ends[0],
        posterior_odds_upper=prior_odds * ends[1],
    )
