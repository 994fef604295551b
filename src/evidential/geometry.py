"""Correlation geometry of the three-cell dependence model.

The model allows the three measurement-error series to be pairwise
correlated with coefficients ``rho = (rho1, rho2, rho3)`` (rho1 couples
cells 2 and 3, rho2 cells 1 and 3, rho3 cells 1 and 2).  A triple is a
valid correlation structure when the 3x3 correlation matrix

    [[1,    rho3, rho2],
     [rho3, 1,    rho1],
     [rho2, rho1, 1   ]]

is positive semidefinite; the open interior of that body (a positive
definite matrix) is the admissible parameter region of the model.

For a study with cell standard deviations ``(s1, s2, s3)`` the plug-in
standard deviation of the scaled contrast ``sqrt(n) * (x1 - 2*x2 + x3)``
is

    s(rho) = sqrt(s1^2 + 4 s2^2 + s3^2
                  - 4 s1 s2 rho3 + 2 s1 s3 rho2 - 4 s2 s3 rho1)

This module gives the infimum of ``s^2`` over the variance-reducing part
of the admissible region in closed form, and the paper's proxy for it, and
collects the scale quantities of a study, as ratios to
``s0 = s(0, 0, 0)``, in one :class:`VarianceProfile`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Context, Decimal

__all__ = [
    "VarianceProfile",
    "contrast",
    "exact_infimum_sq",
    "paper_lower_bound_sq",
    "variance_profile",
]

#: adds and subtracts the decimal forms of a few floats exactly (17
#: significant digits at decimal exponents from -324 to 308)
_EXACT = Context(prec=700)


def contrast(means) -> float:
    """The linear contrast x1 - 2*x2 + x3, evaluated in decimal.

    Published tables carry exact decimals, and whether the contrast is
    exactly zero decides between a finite and an unbounded evidential
    value.  So it is the exact sum of the means' shortest decimals
    (``repr``), rounded once: decimally-zero contrasts are exact zeros, not
    1e-16 noise, and means of any magnitudes and order cannot cancel wrongly.

    Where each ``x * 10**6`` lies below 2**52 (|x| below about 4.5e9) and
    ``m = round(x * 10**6)`` gives ``m / 10**6 == x``, the sum is
    ``(m1 - 2*m2 + m3) / 10**6`` in ints, correctly rounded: the float
    spacing there is below 1e-6, so ``m / 10**6`` is the one decimal of at
    most 6 places that rounds to x, the value of ``repr(x)``.  Other means,
    larger ones and a zero sum (whose sign the decimal rules decide) are
    added in :class:`~decimal.Decimal` (:data:`_EXACT`).
    """
    x1, x2, x3 = map(float, means)
    u1, u2, u3 = x1 * 1e6, x2 * 1e6, x3 * 1e6
    if -2.0**52 < u1 < 2.0**52 and -2.0**52 < u2 < 2.0**52 and -2.0**52 < u3 < 2.0**52:
        m1, m2, m3 = round(u1), round(u2), round(u3)
        if m1 / 10**6 == x1 and m2 / 10**6 == x2 and m3 / 10**6 == x3:
            total = m1 - 2 * m2 + m3
            if total:
                return total / 10**6
    d1, d2, d3 = map(Decimal, map(repr, (x1, x2, x3)))
    return float(_EXACT.subtract(_EXACT.add(d1, d3), _EXACT.add(d2, d2)))


def paper_lower_bound_sq(sds) -> float:
    """Computable lower-bound proxy for the constrained variance infimum.

    ``min{(2 s2 - (s1 + s3))^2, (2 s2 - sqrt(s1^2 + s3^2))^2}``: the first
    candidate is the variance at the all-ones corner of the correlation
    body, the second the variance at the boundary point
    ``(s3, 0, s1) / sqrt(s1^2 + s3^2)``.
    """
    s1, s2, s3 = sds
    first = (2.0 * s2 - (s1 + s3)) ** 2
    second = (2.0 * s2 - math.sqrt(s1 * s1 + s3 * s3)) ** 2
    return min(first, second)


def exact_infimum_sq(sds) -> float:
    """Infimum of s^2(rho) over the variance-reducing admissible region.

    Writing ``w = (s1, 2*s2, s3)``, the value is
    ``max(0, 2*max(w) - (w1 + w2 + w3))^2``.

    Proof.  Every positive semidefinite correlation matrix is the Gram
    matrix of three unit vectors ``v1, v2, v3`` (and every such Gram matrix
    is one), with ``rho1 = <v2, v3>``, ``rho2 = <v1, v3>``,
    ``rho3 = <v1, v2>``.  Expanding the square shows

        s^2(rho) = |s1*v1 - 2*s2*v2 + s3*v3|^2,

    the squared length of a sum of three vectors with lengths ``w``.  By
    the triangle inequality that length is at least ``max(w)`` minus the
    other two lengths, and never negative.  Both bounds are attained: when
    the longest vector outweighs the other two, point them all along one
    line against it (a rank-1 Gram matrix); otherwise the lengths obey the
    triangle inequalities and the three vectors close a planar triangle (a
    rank-<=2 Gram matrix).  So the minimum over the closed correlation
    body is the formula above.

    The model's region is the open interior, so the quantity is an
    infimum: ``s^2`` is continuous (linear in rho) and the interior is
    dense in the closed convex body, so the infimum over the open region
    equals the minimum over its closure.  The reduced-variance constraint
    ``s(rho) <= s(0, 0, 0)`` never binds: along the segment from the
    interior independence point to a minimizer, ``s^2`` is linear and ends
    at its minimum, so every point of the segment except the endpoint is
    interior and satisfies the constraint.
    """
    s1, s2, s3 = sds
    if not (s1 > 0 and s2 > 0 and s3 > 0):
        raise ValueError("sds must be positive")
    top = max(s1, 2.0 * s2, s3)
    return max(0.0, _decided(2.0 * top - (s1 + 2.0 * s2 + s3), top, sds, 1.0, _deficit)) ** 2


def _decided(gap, top, sds, unit, exact):
    # a gap between sds, in units of unit (a power of two): one too close to
    # zero for the float sign is exact(d1, d2, d3) of the sds as given, in
    # decimal, like the contrast, so sds whose printed decimals close it give
    # an exact zero
    if abs(gap) <= 1e-12 * top:
        gap = float(exact(*(Decimal(repr(float(s))) for s in sds))) / unit
    return gap


def _deficit(d1, d2, d3):  # 2*max(w) - sum(w); 2*s2 - (s1 + s3) where 2*s2 is the max
    low, mid, high = sorted((d1, 2 * d2, d3))
    return _EXACT.subtract(_EXACT.subtract(high, mid), low)


def _mixed(d1, d2, d3):  # 2*s2 - hypot(s1, s3)
    return _EXACT.subtract(2 * d2, _EXACT.sqrt(_EXACT.fma(d1, d1, _EXACT.multiply(d3, d3))))


class VarianceProfile(namedtuple("VarianceProfile", "z_v z_c q_paper q_exact")):
    """Derived scale quantities of one study, each a ratio.

    ``z_v = sqrt(n)*z/s0`` (the engine's r, signed; zero only for a zero
    contrast) and ``z_c`` are the contrast statistics; ``q_paper`` and
    ``q_exact`` are the proxy and exact floors of the contrast sd over
    ``s0``, and ``q_exact <= q_paper <= 1`` always holds.
    """

    __slots__ = ()


def variance_profile(study) -> VarianceProfile:
    """Compute the full variance profile of *study*.

    It computes and does not validate: a
    :class:`~evidential.ledger.StudySummary` is checked when it is made.
    It works in units of the largest power of two not above max(sds), an
    exact rescaling, and squares nothing, so it holds across the float range.
    """
    s1, s2, s3 = sds = study.sds
    unit = math.ldexp(1.0, math.frexp(max(sds))[1] - 1)
    s1, s2, s3 = s1 / unit, s2 / unit, s3 / unit
    w2 = 2.0 * s2
    s0 = math.hypot(s1, w2, s3)
    # the floors' gaps: the paper corner, its mixed point and the exact deficit
    top = max(s1, w2, s3)
    corner, mixed, deficit = w2 - (s1 + s3), w2 - math.hypot(s1, s3), 2.0 * top - (s1 + w2 + s3)
    near = 1e-12 * top  # _decided's test, made once for the three
    if abs(corner) <= near or abs(mixed) <= near or abs(deficit) <= near:
        corner = _decided(corner, top, sds, unit, _deficit)
        mixed = _decided(mixed, top, sds, unit, _mixed)
        deficit = _decided(deficit, top, sds, unit, _deficit)
    # q_exact <= q_paper <= 1 holds in exact arithmetic; the mins keep it in floats
    paper = min(abs(corner), abs(mixed), s0)
    exact = min(max(0.0, deficit), paper)
    z = contrast(study.means)
    root_n_z = math.sqrt(study.n) * (z / unit)
    z_v = root_n_z / s0
    if z and not z_v:
        # below the float range: V is unbounded only at a zero contrast
        z_v = math.copysign(math.ulp(0.0), z)
    # the pooled sd sqrt(2*(s1^2 + s2^2 + s3^2)) is a hypot of six
    z_c = root_n_z / math.hypot(s1, s2, s3, s1, s2, s3)
    return tuple.__new__(VarianceProfile, (z_v, z_c, paper / s0, exact / s0))
