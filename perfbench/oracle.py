"""Independent reference values of V and checks of the program's outputs.

Nothing here imports the package under test.  V follows the README's
three-regime formulas, with the mean contrast taken exactly from the
printed decimals.  Paper mode uses the README's floor proxy; exact mode
uses the closed-form floor ``max(0, 2*max(w) - sum(w))^2`` with
``w = (s1, 2*s2, s3)``, which the program's numeric floor matches to the
1e-4 tolerance of its acceptance criterion 4.  Each reference value is a
range: a few ulps wide in paper mode, and in exact mode the values V takes
over floors within that tolerance.

Every ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

INF = math.inf
REL = 1e-9           # float slack between two evaluations of one formula
EXACT_FLOOR_TOL = 1e-4
HALF_CENT = 0.005    # rendered values are rounded to 2 decimals
MAX_PROBLEMS = 5

# The published V columns, as the tool renders them.
PUBLISHED_SUSPECT = {
    "1": "3.92", "2": "4.68", "3": "4.26", "4": "2.72", "5": "3.21",
    "6": "4.95–9.41", "7": "4.43", "8": "13.95–∞",
    "9a": "2.10", "9b": "3.95", "10a": "4.94", "10b": "10.17–23.92",
}
PUBLISHED_REFERENCE = {
    "Hagtvedt-l": "1.40", "Hagtvedt-2": "1.17", "Hunt": "1", "Jia": "1",
    "Kanten-l": "1.00", "Kanten-2": "1.75", "Lerouge-l": "1",
    "Lerouge-2": "12.23–13.01", "Lerouge-3": "1.01", "Lerouge-4": "1.21",
    "Malkoc": "5.26–5.27", "Polman": "1.34", "Rook-l": "1", "Rook-2": "1.69",
    "Smith-l": "1.01", "Smith-2": "1.26", "Smith-3": "1", "Smith-4": "4.04",
    "Smith-5": "1.63", "Smith-6": "1", "Smith-7": "1.02",
}
THRESHOLD_LINE = "0.3191, 0.2504"

# simulate --n 20 --sigma 1,1,1 --v 2 --reps 100000
ANALYTIC_TAIL = 0.2504
FINITE_N_GAP = 0.0031     # the seed-42 estimate 0.2473 sits this far below
MC_SIGMAS = 4.0
SEED42_ESTIMATE = "0.2473"


@dataclass(frozen=True)
class Reference:
    """Acceptable ranges for one study's V and the regimes it may report."""

    lower: tuple[float, float]
    upper: tuple[float, float]
    cases: frozenset
    regime: str   # above, middle, below or unbounded


def _point(nz_sq, s0_sq):
    return math.sqrt(s0_sq / nz_sq) * math.exp(-0.5 * (1.0 - nz_sq / s0_sq))


def _at_floor(nz_sq, floor_sq, s0_sq):
    return math.sqrt(s0_sq / floor_sq) * math.exp(
        -0.5 * nz_sq * (1.0 / floor_sq - 1.0 / s0_sq)
    )


def _case(nz_sq, floor_sq, s0_sq):
    if nz_sq > s0_sq:
        return "above"
    if nz_sq < floor_sq or (nz_sq == 0.0 and floor_sq == 0.0):
        return "below"
    return "middle"


def _paper_value(nz_sq, floor_sq, s0_sq):
    case = _case(nz_sq, floor_sq, s0_sq)
    if case == "above":
        return 1.0, 1.0
    if case == "middle":
        v = max(1.0, _point(nz_sq, s0_sq))
        return v, v
    lower = INF if floor_sq == 0.0 else max(1.0, _at_floor(nz_sq, floor_sq, s0_sq))
    upper = INF if nz_sq == 0.0 else max(lower, _point(nz_sq, s0_sq))
    return lower, upper


def _exact_value(nz_sq, floor_sq, s0_sq):
    # non-increasing in floor_sq, so a floor range maps to a value range
    case = _case(nz_sq, floor_sq, s0_sq)
    if case == "above":
        return 1.0
    if case == "middle":
        return max(1.0, _point(nz_sq, s0_sq))
    return INF if floor_sq == 0.0 else max(1.0, _at_floor(nz_sq, floor_sq, s0_sq))


def _widen(v):
    return (v, v) if math.isinf(v) else (v * (1 - REL), v * (1 + REL))


def scales(row):
    """``(nz_sq, s0_sq, paper_floor_sq, exact_floor_sq)`` of a study row."""
    x1, x2, x3 = (Decimal(x) for x in row.means)
    z = float(x1 - 2 * x2 + x3)
    n = float(Fraction(row.n))
    s1, s2, s3 = (float(s) for s in row.sds)
    s0_sq = s1 * s1 + 4.0 * s2 * s2 + s3 * s3
    paper = min((2.0 * s2 - (s1 + s3)) ** 2, (2.0 * s2 - math.sqrt(s1 * s1 + s3 * s3)) ** 2)
    w = (s1, 2.0 * s2, s3)
    exact = max(0.0, 2.0 * max(w) - sum(w)) ** 2
    return n * z * z, s0_sq, paper, exact


def reference(row, mode: str) -> Reference:
    nz_sq, s0_sq, paper, exact = scales(row)
    if mode == "paper":
        lower, upper = _paper_value(nz_sq, paper, s0_sq)
        case = _case(nz_sq, paper, s0_sq)
        cases = {case}
        if abs(nz_sq - s0_sq) <= REL * s0_sq:
            cases |= {"above", "middle"}
        if abs(nz_sq - paper) <= REL * s0_sq:
            cases |= {"middle", "below"}
        regime = "unbounded" if math.isinf(upper) else case
        return Reference(_widen(lower), _widen(upper), frozenset(cases), regime)
    lo_floor = max(0.0, exact - EXACT_FLOOR_TOL)
    hi_floor = min(exact + EXACT_FLOOR_TOL, paper)
    v_min = _exact_value(nz_sq, hi_floor, s0_sq)
    v_max = _exact_value(nz_sq, lo_floor, s0_sq)
    span = (v_min * (1 - REL), v_max if math.isinf(v_max) else v_max * (1 + REL))
    cases = {_case(nz_sq, f, s0_sq) for f in (lo_floor, exact, hi_floor)}
    if abs(nz_sq - s0_sq) <= REL * s0_sq:
        cases |= {"above", "middle"}
    v = _exact_value(nz_sq, exact, s0_sq)
    regime = "unbounded" if math.isinf(v) else _case(nz_sq, exact, s0_sq)
    return Reference(span, span, frozenset(cases), regime)


def regime_shares(refs) -> dict:
    """Share of each regime among reference values (they sum to 1)."""
    out = {k: 0 for k in ("above", "middle", "below", "unbounded")}
    for ref in refs:
        out[ref.regime] += 1
    total = max(1, len(refs))
    return {k: v / total for k, v in out.items()}


# --- reading rendered values ---------------------------------------------------

def _rendered_number(text):
    return INF if text == "∞" else float(text)


def parse_rendered(text):
    """``(lower, upper)`` of a rendered V such as ``4.95–9.41`` or ``∞``."""
    lo, sep, hi = text.partition("–")
    lower = _rendered_number(lo)
    return lower, (_rendered_number(hi) if sep else lower)


def _in_range(x, bounds, slack=0.0):
    a, b = bounds
    if math.isinf(a):
        return math.isinf(x)
    if math.isinf(x):
        return math.isinf(b)
    return a - slack - REL <= x <= b + slack + REL


def _check_rendered(sid, text, ref, problems):
    try:
        lower, upper = parse_rendered(text)
    except ValueError:
        problems.append(f"{sid}: unreadable V {text!r}")
        return
    if not (_in_range(lower, ref.lower, HALF_CENT) and _in_range(upper, ref.upper, HALF_CENT)):
        problems.append(f"{sid}: V {text} outside reference {ref.lower}..{ref.upper}")


def _tail_count_range(refs, v=2.0):
    return (sum(1 for r in refs if r.lower[0] >= v), sum(1 for r in refs if r.lower[1] >= v))


# --- command outputs -------------------------------------------------------------

def check_table(text: str, rows, refs, published=None) -> list[str]:
    """Check a ``compute --format table`` report against the reference."""
    problems = []
    lines = text.splitlines()
    if not lines or not lines[0].startswith("id "):
        return ["table header missing"]
    body = []
    for line in lines[1:]:
        if not line:
            break
        body.append(line.split())
    if len(body) != len(rows):
        return [f"table has {len(body)} rows, expected {len(rows)}"]
    for fields, row, ref in zip(body, rows, refs):
        if len(problems) >= MAX_PROBLEMS:
            break
        if len(fields) < 8 or fields[0] != row.id:
            problems.append(f"expected row {row.id!r}, got {' '.join(fields)!r}")
            continue
        v_text, case = fields[4], fields[7]
        if published is not None and v_text != published[row.id]:
            problems.append(f"{row.id}: V {v_text} differs from published {published[row.id]}")
        _check_rendered(row.id, v_text, ref, problems)
        if case not in ref.cases:
            problems.append(f"{row.id}: case {case}, expected {sorted(ref.cases)}")
    share = re.search(r"empirical share with V >= 2: (\d+)/(\d+) =", text)
    low, high = _tail_count_range(refs)
    if not share:
        problems.append("empirical share line missing")
    elif int(share.group(2)) != len(rows) or not low <= int(share.group(1)) <= high:
        problems.append(f"empirical share {share.group(0)} expected {low}..{high}/{len(rows)}")
    return problems


def _json_bound(x):
    return INF if x is None else x


def check_json(text: str, rows, refs, published=None) -> list[str]:
    """Check a ``compute --format json`` report against the reference."""
    try:
        doc = json.loads(text)
        got = doc["rows"]
        tail = doc["empirical_tail"]["fraction"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON report: {exc!r}"]
    if not isinstance(got, list) or len(got) != len(rows):
        return [f"report rows are not the {len(rows)} expected"]
    problems = []
    for item, row, ref in zip(got, rows, refs):
        if len(problems) >= MAX_PROBLEMS:
            break
        if not isinstance(item, dict) or item.get("id") != row.id:
            problems.append(f"expected row {row.id!r}, got {str(item)[:200]}")
            continue
        lower, upper = (_json_bound(item.get(k, "missing")) for k in ("v_lower", "v_upper"))
        if not all(isinstance(x, (int, float)) for x in (lower, upper)):
            problems.append(f"{row.id}: unreadable V [{lower}, {upper}]")
            continue
        if not (_in_range(lower, ref.lower) and _in_range(upper, ref.upper)):
            problems.append(f"{row.id}: V [{lower}, {upper}] outside {ref.lower}..{ref.upper}")
        if published is not None and item.get("v_rendered") != published[row.id]:
            problems.append(f"{row.id}: V {item.get('v_rendered')} differs from published")
        _check_rendered(row.id, str(item.get("v_rendered")), ref, problems)
        if item.get("case") not in ref.cases:
            problems.append(f"{row.id}: case {item.get('case')}, expected {sorted(ref.cases)}")
    low, high = _tail_count_range(refs)
    if not isinstance(tail, (int, float)) or not low / len(rows) - REL <= tail <= high / len(rows) + REL:
        problems.append(f"empirical tail {tail} expected {low}..{high}/{len(rows)}")
    return problems


def check_threshold(text: str) -> list[str]:
    got = text.strip()
    return [] if got == THRESHOLD_LINE else [f"threshold printed {got!r}, expected {THRESHOLD_LINE!r}"]


_SIMULATE = re.compile(
    r"reps: (\d+)  seed: (-?\d+)  v: 2\n"
    r"P\(V >= 2\) = (\d\.\d{4})  \(mc stderr (\d\.\d{4})\)\n?$"
)


def check_simulate(text: str, seed: int, reps: int) -> list[str]:
    """Check a ``simulate --n 20 --sigma 1,1,1 --v 2`` estimate.

    The estimate must sit within ``MC_SIGMAS`` Monte Carlo standard errors
    plus the known finite-n gap of the analytic tail 0.2504; at seed 42 it
    must read exactly 0.2473.
    """
    m = _SIMULATE.match(text)
    if not m:
        return [f"unexpected simulate output {text!r}"]
    if int(m.group(1)) != reps or int(m.group(2)) != seed:
        return [f"simulate echoed reps {m.group(1)} seed {m.group(2)}, expected {reps} {seed}"]
    p, stderr = float(m.group(3)), float(m.group(4))
    problems = []
    if abs(stderr - math.sqrt(p * (1 - p) / reps)) > 1e-4:
        problems.append(f"mc stderr {stderr} inconsistent with p={p}, reps={reps}")
    slack = FINITE_N_GAP + MC_SIGMAS * math.sqrt(ANALYTIC_TAIL * (1 - ANALYTIC_TAIL) / reps)
    if abs(p - ANALYTIC_TAIL) > slack:
        problems.append(f"estimate {p} further than {slack:.4f} from {ANALYTIC_TAIL}")
    if seed == 42 and reps == 100_000 and m.group(3) != SEED42_ESTIMATE:
        problems.append(f"seed 42 estimate {m.group(3)}, expected {SEED42_ESTIMATE}")
    return problems
