"""Seeded synthetic ledgers in the style of published three-cell tables.

Means and sds carry two decimals, as printed in journals; about one study
in ten reports its per-cell ``n`` as a quotient such as ``301/6`` (a total
over unequal cells).  Contrasts are drawn so that Z_V is roughly standard
normal, which puts studies in all three regimes of V; a small share has a
contrast that is exactly zero in the printed decimals, the case that makes
the paper-mode upper end unbounded.  The same seed always gives the same
ledger.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal

COLUMNS = ("id", "n", "x1", "x2", "x3", "s1", "s2", "s3")

QUOTIENT_SHARE = 0.10
ZERO_CONTRAST_SHARE = 0.03
# share of studies whose middle cell is much noisier than the outer ones,
# which lifts the variance floor and feeds the "below" regime
WIDE_MIDDLE_SHARE = 0.15


@dataclass(frozen=True)
class Row:
    """One study as its printed text: the fields of a ledger line."""

    id: str
    n: str
    means: tuple[str, str, str]
    sds: tuple[str, str, str]


def _hundredths(k: int) -> str:
    return str(Decimal(k).scaleb(-2))


def _study(rng: random.Random, ident: str) -> Row:
    if rng.random() < QUOTIENT_SHARE:
        cells = rng.choice((3, 6))
        total = rng.randrange(10 * cells, 150 * cells)
        if total % cells == 0:
            total += 1
        n_text, n = f"{total}/{cells}", total / cells
    else:
        n = rng.randint(10, 150)
        n_text = str(n)
    base = rng.uniform(0.3, 3.0)
    spread = [base * math.exp(rng.gauss(0.0, 0.25)) for _ in range(3)]
    if rng.random() < WIDE_MIDDLE_SHARE:
        spread[1] = base * rng.uniform(1.2, 2.0)
    sds = [max(5, round(100 * s)) for s in spread]
    s0 = math.sqrt(sds[0] ** 2 + 4 * sds[1] ** 2 + sds[2] ** 2) / 100
    if rng.random() < ZERO_CONTRAST_SHARE:
        c = 0
    else:
        c = round(100 * rng.gauss(0.0, 1.0) * s0 / math.sqrt(n))
    x2 = rng.randint(100, 900)
    slope = rng.randint(-150, 150)
    means = (x2 - slope, x2, x2 + slope + c)
    return Row(
        id=ident,
        n=n_text,
        means=tuple(_hundredths(m) for m in means),
        sds=tuple(_hundredths(s) for s in sds),
    )


def generate(seed: int, count: int) -> list[Row]:
    """*count* studies drawn from a stream determined by *seed* alone."""
    rng = random.Random(seed)
    return [_study(rng, f"S{k:06d}") for k in range(count)]


def to_csv(rows) -> str:
    lines = [",".join(COLUMNS)]
    lines += [",".join((r.id, r.n, *r.means, *r.sds)) for r in rows]
    return "\n".join(lines) + "\n"


def to_json(rows) -> str:
    def n_value(text):
        return text if "/" in text else int(text)

    studies = [
        {
            "id": r.id,
            "n": n_value(r.n),
            "means": [float(x) for x in r.means],
            "sds": [float(s) for s in r.sds],
        }
        for r in rows
    ]
    return json.dumps({"studies": studies}) + "\n"


def read_csv(text: str) -> list[Row]:
    """Rows of a ledger CSV (header required, ``#`` comments skipped)."""
    rows = []
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("#")]
    for line in lines[1:]:
        ident, n, x1, x2, x3, s1, s2, s3 = (c.strip() for c in line.split(","))
        rows.append(Row(ident, n, (x1, x2, x3), (s1, s2, s3)))
    return rows
