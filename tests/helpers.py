"""Shared test utilities: independent oracles and random-input factories.

Two oracles for the constrained variance infimum live here, and neither
shares code with the production closed form
:func:`evidential.geometry.exact_infimum_sq` they judge:

* :func:`numeric_infimum_sq`, a grid-seeded coordinate and Newton solver
  over the boundary of the correlation body;
* :func:`brute_force_infimum_sq`, an exhaustive angle scan with zooming.

:func:`conditional_null_tail` is the model reference for the Monte Carlo
estimate of :func:`evidential.simulate.null_exceedance`, and
:func:`json_rows_oracle` the reference for the rows of a JSON report: a dict
per row through ``json.dumps``, and :func:`contrast_oracle` the reference for
:func:`evidential.geometry.contrast`: the means' shortest decimals as
fractions.  :func:`floors_oracle` is the reference for the floors whose
squares :mod:`evidential.geometry`'s helpers return, from the sds' shortest
decimals as fractions.

The correlation body and its contrast sd, the plug-in density, the
error-copying generator and the ledger writers are here too: the tests
use them, and no command does.
"""

import json
import math
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.special import erf

from evidential.engine import threshold_ratio
from evidential.ledger import COLUMNS, LedgerError, StudySummary
from evidential.simulate import ParameterError


class SolverError(RuntimeError):
    """Non-convergence or a violated constraint in the numeric oracle."""

    def __init__(self, message, best_bound=None):
        super().__init__(message)
        self.best_bound = best_bound


# --- numeric minimization over the boundary of the correlation body ------
#
# s^2(rho) is linear in rho with strictly negative coefficient on rho3
# (and nonzero on the others), so its minimum over the closed body is
# attained on the boundary det == 0, the rank-<=2 correlation matrices.
# Those are exactly the Gram matrices of three unit vectors in the plane:
# with angles (u, w, 0) for the three cells,
#
#     rho1 = cos(u),  rho2 = cos(w),  rho3 = cos(u - w),
#
# which turns the problem into the unconstrained smooth minimization of
#
#     g(u, w) = c1*cos(u) + c2*cos(w) + c3*cos(u - w),
#     c1 = -4 s2 s3,  c2 = 2 s1 s3,  c3 = -4 s1 s2,
#
# over the torus (g is invariant under (u, w) -> (-u, -w), so u may be
# restricted to [0, pi]).  A uniform angle grid locates the basin; note
# that a grid in rho itself under-resolves the surface near |rho_i| = 1,
# where d(rho)/d(angle) vanishes, and provably misses minimizers there.
#
# Refinement alternates exact single-angle minimizations (each coordinate
# section is A*cos + B*sin, minimized in closed form) and finishes with a
# damped Newton polish for valley geometries where coordinate steps zigzag.

_N_U = 316   # ~0.01 rad over [0, pi]
_N_W = 630   # ~0.01 rad over [-pi, pi]
_U_GRID = np.linspace(0.0, math.pi, _N_U)
_W_GRID = np.linspace(-math.pi, math.pi, _N_W)
_COS_U = np.cos(_U_GRID)[:, None]
_COS_W = np.cos(_W_GRID)[None, :]
_COS_UW = _COS_U * _COS_W + np.sin(_U_GRID)[:, None] * np.sin(_W_GRID)[None, :]
_W_HALF = _N_W // 2  # _W_GRID[:_W_HALF] < 0 <= _W_GRID[_W_HALF:]


def _refine(c1, c2, c3, u, w, scale, tol):
    cos, sin, atan2 = math.cos, math.sin, math.atan2

    def g(u, w):
        return c1 * cos(u) + c2 * cos(w) + c3 * cos(u - w)

    fx = g(u, w)
    gain = math.inf  # objective decrease achieved by the most recent step
    for _ in range(300):
        # exact coordinate minimizers: the u-section of g is
        # (c1 + c3*cos w)*cos u + (c3*sin w)*sin u, and symmetrically in w
        u = atan2(-c3 * sin(w), -(c1 + c3 * cos(w)))
        w = atan2(-c3 * sin(u), -(c2 + c3 * cos(u)))
        fn = g(u, w)
        gain = fx - fn
        fx = min(fx, fn)
        if gain < 1e-13 * scale:
            break
    for _ in range(100):
        su, sw, suw = sin(u), sin(w), sin(u - w)
        gu = -c1 * su - c3 * suw
        gw = -c2 * sw + c3 * suw
        if gu * gu + gw * gw <= (1e-12 * scale) ** 2:
            gain = 0.0
            break
        cuw = cos(u - w)
        huu = -c1 * cos(u) - c3 * cuw
        hww = -c2 * cos(w) - c3 * cuw
        huw = c3 * cuw
        det = huu * hww - huw * huw
        if det > 1e-16 * scale * scale and huu > 0.0:
            du = -(hww * gu - huw * gw) / det
            dw = -(-huw * gu + huu * gw) / det
        else:
            # indefinite curvature (saddle region): steepest descent with a
            # fixed trial arc length, backtracked below
            norm = math.hypot(gu, gw)
            du, dw = -0.25 * gu / norm, -0.25 * gw / norm
        step, moved = 1.0, False
        for _ in range(40):
            fn = g(u + step * du, w + step * dw)
            if fn < fx:
                gain = fx - fn
                u, w, fx = u + step * du, w + step * dw, fn
                moved = True
                break
            step *= 0.5
        if not moved:
            # no float-representable decrease along the model direction:
            # the point is a local minimum at machine resolution
            gain = 0.0
            break
    # converged when the final step could no longer move the value by more
    # than the agreement tolerance (scale-aware floor for huge inputs)
    converged = gain <= max(tol, 1e-12 * scale)
    return fx, converged


def numeric_infimum_sq(sds, tol: float = 1e-6) -> float:
    """Numeric infimum of s^2(rho) over the variance-reducing region.

    Minimizes the plug-in contrast variance over the closure of the
    admissible correlation region intersected with
    ``s(rho) <= s(0, 0, 0)``; by continuity this equals the infimum over
    the open region.  The reduced-variance constraint is verified at the
    minimizer (it is provably inactive: the minimum of a nonconstant
    linear function cannot sit at the interior independence point).

    Deterministic: grid reduction uses first-minimum tie-breaking in
    row-major (u, w) order, so results do not depend on evaluation order.

    Raises :class:`SolverError` carrying ``best_bound`` if the iteration
    budget is exhausted before the improvement drops below *tol*.
    """
    s1, s2, s3 = sds
    if not (s1 > 0 and s2 > 0 and s3 > 0):
        raise ValueError("sds must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    s0_sq = s1 * s1 + 4.0 * s2 * s2 + s3 * s3
    c1 = -4.0 * s2 * s3
    c2 = 2.0 * s1 * s3
    c3 = -4.0 * s1 * s2
    scale = abs(c1) + abs(c2) + abs(c3)

    grid = _COS_UW * c3
    grid += c1 * _COS_U
    grid += c2 * _COS_W

    # seed one refinement per w half-plane (the two root branches of the
    # det == 0 surface) so a shallow second basin cannot be missed
    candidates = []
    for lo, hi in ((_W_HALF, _N_W), (0, _W_HALF)):
        block = grid[:, lo:hi]
        k = int(np.argmin(block))
        i, j = divmod(k, block.shape[1])
        candidates.append(
            _refine(c1, c2, c3, float(_U_GRID[i]), float(_W_GRID[lo + j]), scale, tol)
        )
    best, best_converged = min(candidates, key=lambda c: (c[0], not c[1]))

    value = max(0.0, s0_sq + best)
    # a variance infimum cannot be negative, so touching zero is the floor;
    # otherwise the winning refinement itself must have converged (a stalled
    # losing seed only ever provided a dominated candidate)
    converged = best_converged or s0_sq + best <= 1e-12 * max(1.0, s0_sq)
    if not converged:
        raise SolverError(
            f"infimum search did not converge within the iteration budget "
            f"for sds={tuple(sds)}; best bound found: {value}",
            best_bound=value,
        )
    # reduced-variance constraint, checked rather than assumed
    if value > s0_sq * (1.0 + 1e-12) + 1e-12:
        raise SolverError(
            f"minimizer violates s(rho) <= s(0,0,0): {value} > {s0_sq}",
            best_bound=value,
        )
    return value



def brute_force_infimum_sq(sds, coarse_step=0.002, zoom_rounds=4):
    """Independent oracle for the constrained variance infimum.

    Exhaustive scan of the boundary surface of the correlation body using
    its planar-angle form rho = (cos u, cos w, cos(u - w)), followed by
    grid zooming around the best cell.  Slow and dumb on purpose.
    """
    s1, s2, s3 = sds
    s0_sq = s1 * s1 + 4.0 * s2 * s2 + s3 * s3
    c1, c2, c3 = -4.0 * s2 * s3, 2.0 * s1 * s3, -4.0 * s1 * s2

    w = np.arange(-math.pi, math.pi + coarse_step / 2, coarse_step)
    cos_w, sin_w = np.cos(w), np.sin(w)
    best_val, best_u, best_w = math.inf, 0.0, 0.0
    for u in np.arange(0.0, math.pi + coarse_step / 2, coarse_step):
        vals = c1 * math.cos(u) + c2 * cos_w + c3 * (
            math.cos(u) * cos_w + math.sin(u) * sin_w
        )
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_u, best_w = float(vals[j]), float(u), float(w[j])

    span = coarse_step
    for _ in range(zoom_rounds):
        us = np.linspace(best_u - span, best_u + span, 81)
        ws = np.linspace(best_w - span, best_w + span, 81)
        grid = (
            c1 * np.cos(us)[:, None]
            + c2 * np.cos(ws)[None, :]
            + c3 * np.cos(us[:, None] - ws[None, :])
        )
        k = int(np.argmin(grid))
        i, j = divmod(k, grid.shape[1])
        best_val, best_u, best_w = float(grid[i, j]), float(us[i]), float(ws[j])
        span /= 20.0
    return max(0.0, s0_sq + best_val)


def conditional_null_tail(v, n, sigma, draws, seed):
    """P(V >= v) under integrity at sample size *n* and cell sds *sigma*,
    by conditioning on the sample sds.

    For normal data the sample sds are independent of the means, and
    given them the paper-mode lower end of V is non-increasing in
    ``n*z^2``, so ``V >= v`` iff ``n*z^2 <= t(s, v)``: ``t`` is
    ``threshold_ratio(v)^2 * s0^2`` in the middle regime and
    ``(log(s0^2/f) - 2*log(v)) / (1/f - 1/s0^2)`` (at least 0) below the
    paper floor f.  As ``n*z^2 / sigma0^2`` is chi-square with one degree
    of freedom, ``P(V >= v | s) = erf(sqrt(t / (2*sigma0^2)))``; this
    averages it over *draws* sds triples ``s_i^2 ~ sigma_i^2 *
    chi2(n-1) / (n-1)`` from ``default_rng(seed)``.
    """
    sigma = np.asarray(sigma, dtype=float)
    chi2 = np.random.default_rng(seed).chisquare(n - 1, size=(draws, 3))
    s1, s2, s3 = (sigma * np.sqrt(chi2 / (n - 1))).T
    s0_sq = s1 * s1 + 4.0 * s2 * s2 + s3 * s3
    floor_sq = np.minimum(
        (2.0 * s2 - (s1 + s3)) ** 2, (2.0 * s2 - np.sqrt(s1 * s1 + s3 * s3)) ** 2
    )
    middle = threshold_ratio(v) ** 2 * s0_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        below = (np.log(s0_sq / floor_sq) - 2.0 * math.log(v)) / (1.0 / floor_sq - 1.0 / s0_sq)
    t = np.where(middle >= floor_sq, middle, np.maximum(below, 0.0))
    sigma0_sq = sigma[0] ** 2 + 4.0 * sigma[1] ** 2 + sigma[2] ** 2
    return float(np.mean(erf(np.sqrt(t / (2.0 * sigma0_sq)))))


def random_sds(rng, low=0.1, high=10.0):
    return tuple(rng.uniform(low, high, 3).tolist())


def random_study(rng, ident="r"):
    """A random valid study: means anywhere, positive sds, real n."""
    return StudySummary(
        id=ident,
        n=float(rng.uniform(2.0, 120.0)),
        means=tuple(rng.uniform(-5.0, 5.0, 3).tolist()),
        sds=random_sds(rng),
    )


def random_interior_rho(rng):
    """Rejection-sample a strictly interior correlation triple."""
    while True:
        r = rng.uniform(-1.0, 1.0, 3)
        r1, r2, r3 = r
        det = 1.0 - r1 * r1 - r2 * r2 - r3 * r3 + 2.0 * r1 * r2 * r3
        if det > 1e-9 and np.all(np.abs(r) < 1.0 - 1e-9):
            return tuple(r.tolist())


# --- the correlation body --------------------------------------------------

#: tolerated negative radicand before declaring an internal inconsistency
RADICAND_TOL = 1e-12


class GeometryError(RuntimeError):
    """Internal inconsistency in the geometry layer."""


def elliptope_det(rho) -> float:
    """Determinant criterion of the correlation body.

    Returns ``1 - rho1^2 - rho2^2 - rho3^2 + 2*rho1*rho2*rho3``, the
    determinant of the 3x3 correlation matrix.  Accepts any triple of
    reals; whether the value signals membership is the caller's question.
    """
    r1, r2, r3 = rho
    return 1.0 - r1 * r1 - r2 * r2 - r3 * r3 + 2.0 * r1 * r2 * r3


def is_interior(rho) -> bool:
    """True when *rho* lies strictly inside the admissible region."""
    return all(abs(r) < 1.0 for r in rho) and elliptope_det(rho) > 0.0


class CorrelationTriple(namedtuple("CorrelationTriple", "rho1 rho2 rho3")):
    """An admissible correlation triple (strict interior point).

    Boundary points (``det == 0`` or ``|rho_i| == 1``) are deliberately not
    representable: the variance floor is attained on the closure, but
    model parameters must be proper correlation matrices.
    """

    __slots__ = ()

    def __new__(cls, rho1, rho2, rho3):
        self = super().__new__(cls, rho1, rho2, rho3)
        if not is_interior(self):
            raise ValueError(
                f"({rho1}, {rho2}, {rho3}) is not an interior "
                "correlation triple: need |rho_i| < 1 and det > 0"
            )
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


def combined_sd(rho, sds) -> float:
    """Plug-in standard deviation s(rho) of the scaled contrast.

    ``rho`` must satisfy the admissibility invariants and ``sds`` must be
    positive; then the radicand is a quadratic form of a valid covariance
    matrix and cannot be negative beyond roundoff.
    """
    r1, r2, r3 = rho
    s1, s2, s3 = sds
    radicand = (
        s1 * s1 + 4.0 * s2 * s2 + s3 * s3
        - 4.0 * s1 * s2 * r3 + 2.0 * s1 * s3 * r2 - 4.0 * s2 * s3 * r1
    )
    if radicand < -RADICAND_TOL:
        raise GeometryError(
            f"negative contrast variance {radicand} for rho={tuple(rho)}, "
            f"sds={tuple(sds)}; inputs violate the admissibility invariants"
        )
    return math.sqrt(max(0.0, radicand))


def plugin_density(z: float, n: float, s_sq: float) -> float:
    """Density of N(0, s_sq / n) at *z*: the plug-in law of the contrast."""
    if n <= 0:
        raise ValueError("n must be positive")
    if s_sq <= 0:
        raise ValueError("s_sq must be positive")
    return math.sqrt(n / (2.0 * math.pi * s_sq)) * math.exp(-n * z * z / (2.0 * s_sq))


# --- error copying -----------------------------------------------------------
#
# One concrete way to fake correlated cells: with shared standard normal
# draws U_j and private draws V_ij, the error of cell i in column j is
#
#     eps_ij = sigma_i * (Delta_ij * U_j + (1 - Delta_ij) * V_ij)
#
# where the Delta_ij are independent Bernoulli indicators with
#
#     P(Delta_1j = 1) = sqrt(rho2*rho3 / rho1)
#     P(Delta_2j = 1) = sqrt(rho1*rho3 / rho2)
#     P(Delta_3j = 1) = sqrt(rho1*rho2 / rho3)
#
# Whenever two cells both copy a column (both Deltas are 1), their
# standardized errors coincide exactly; the construction realizes pairwise
# correlations (rho3, rho2, rho1) between cells (1,2), (1,3) and (2,3).
# The probabilities only exist when all rho_i are positive and each pairwise
# product is dominated by the third coordinate; the independence null
# (rho = 0) is the Delta == 0 special case.


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


def copying_errors(sigma, rho, n, seed):
    """The 3 x n error matrix under error copying at the interior triple *rho*.

    Deterministic given *seed*; the draw order is fixed: shared column
    draws U, private draws V, then the copy indicators (none at rho = 0).
    """
    probs = copy_probabilities(CorrelationTriple(*rho))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal((3, n))
    if probs == (0.0, 0.0, 0.0):
        standardized = v
    else:
        delta = rng.random((3, n)) < np.asarray(probs)[:, None]
        standardized = np.where(delta, u[None, :], v)
    return np.asarray(sigma, dtype=float)[:, None] * standardized


# --- ledger writers ----------------------------------------------------------


def ledger_to_mapping(ledger) -> dict:
    return {
        "source": ledger.source,
        "studies": [
            {"id": s.id, "n": s.n, "means": list(s.means), "sds": list(s.sds)}
            for s in ledger
        ],
    }


def serialize_ledger(ledger) -> str:
    """Render a ledger as CSV text (12 significant digits, round-trip safe)."""
    lines = [",".join(COLUMNS)]
    for s in ledger:
        if "," in s.id or "\n" in s.id:
            raise LedgerError(f"study id {s.id!r} cannot be serialized to CSV")
        fields = [s.id, f"{s.n:.12g}"]
        fields += [f"{x:.12g}" for x in s.means]
        fields += [f"{x:.12g}" for x in s.sds]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


# --- the mean contrast -------------------------------------------------------


def contrast_oracle(means) -> float:
    """x1 - 2*x2 + x3 summed exactly over the fractions of the means'
    shortest decimals (``repr``), as a float: correctly rounded, ±inf past
    the float range.  An exact zero is -0.0 only where IEEE addition gives
    it, ``(-0.0 + -0.0) - (0.0 + 0.0)``."""
    x1, x2, x3 = (Fraction(repr(float(x))) for x in means)
    total = x1 - 2 * x2 + x3
    if total:
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf
    # signs (-, +, -) with a zero sum: x1 = x3 = -0.0 and x2 = 0.0
    signs = tuple(math.copysign(1.0, x) for x in means)
    return -0.0 if signs == (-1.0, 1.0, -1.0) else 0.0


def floors_oracle(sds) -> tuple[float, float]:
    """The paper and exact floors of the contrast sd, ``(paper, exact)``,
    from the fractions of the sds' shortest decimals (``repr``), as floats.

    Corner and deficit are exact.  The mixed point ``|2*s2 - sqrt(S)|``,
    ``S = s1^2 + s3^2``, is ``|4*s2^2 - S| / (2*s2 + sqrt(S))``: an exact
    numerator over a sum that cancels nothing, so a 60-digit root gives it
    to full float precision, and an exact zero where ``4*s2^2 == S``."""
    s1, s2, s3 = (Fraction(repr(float(s))) for s in sds)
    w = (s1, 2 * s2, s3)
    squares = s1 * s1 + s3 * s3
    with localcontext(Context(prec=60)):
        root = Fraction((Decimal(squares.numerator) / squares.denominator).sqrt())
    mixed = abs(w[1] * w[1] - squares) / (w[1] + root)
    return float(min(abs(w[1] - (s1 + s3)), mixed)), float(max(0, 2 * max(w) - sum(w)))


# --- JSON report rows --------------------------------------------------------


def _json_bound(x):
    return None if math.isinf(x) else x


def json_rows_oracle(rows) -> str:
    """Report rows as a JSON list, a dict per row through ``json.dumps``."""
    return json.dumps(
        [
            {
                "id": r.study.id,
                "n": r.study.n,
                "means": list(r.study.means),
                "sds": list(r.study.sds),
                "v_lower": _json_bound(r.value.lower),
                "v_upper": _json_bound(r.value.upper),
                "v_rendered": r.v_rendered,
                "case": r.value.case.value,
                "z_v": _json_bound(r.z_v),
                "z_c": _json_bound(r.z_c),
                "notes": list(r.notes),
            }
            for r in rows
        ],
        sort_keys=True,
    )
