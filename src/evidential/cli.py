"""Command-line interface: evaluate ledgers, invert thresholds, calibrate.

Exit codes: 0 success, 1 computation error, 2 input/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from decimal import ROUND_HALF_UP, Context, Decimal

from . import engine, geometry, ledger, simulate

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2

#: 320 digits hold any finite float (the default 28 overflow at ~1e26)
_WIDE = Context(prec=320)
_CENT = Decimal("0.01")


def _round2(x: float) -> str:
    # table values round half-up to 2 decimals, like the published tables
    return str(Decimal(repr(x)).quantize(_CENT, ROUND_HALF_UP, _WIDE))


def _arithmetic(exc: Exception) -> str:
    # an OverflowError from math.exp reads only "math range error"
    return f"overflow: {exc.args[-1]}" if isinstance(exc, OverflowError) else str(exc)


def _fmt_bound(x: float) -> str:
    if math.isinf(x):
        return "∞"
    if x == 1.0:
        return "1"
    return _round2(x)


def render_value(ev: engine.EvidentialValue) -> str:
    """Render V as the tables do: one number, or 'lower–upper' with '∞'.

    An interval whose ends agree at the rendered precision collapses to a
    single number, matching how published tables print such rows.
    """
    lo = _fmt_bound(ev.lower)
    hi = _fmt_bound(ev.upper)
    if ev.is_point or lo == hi:
        return lo
    return f"{lo}–{hi}"


class ReportRow(namedtuple("ReportRow", "study value v_rendered z_v z_c notes")):
    """One rendered study of a compute report: its StudySummary, and the
    EvidentialValue, rendered V, Z_V, Z_C and notes it gave."""

    __slots__ = ()


def build_rows(studies, mode: engine.Mode | str) -> list[ReportRow]:
    """Evaluate each study; an arithmetic failure is a ValueError naming it."""
    mode = engine.Mode(mode)
    rows = []
    for study in studies:
        try:
            profile = geometry.variance_profile(study)
            ev = engine.profile_value(profile, mode)
        except ArithmeticError as exc:
            raise ValueError(f"study '{study.id}': {_arithmetic(exc)}") from exc
        notes = tuple(ledger.study_warnings(study))
        rows.append(ReportRow(study, ev, render_value(ev), profile.z_v, profile.z_c, notes))
    return rows


def _nums(values) -> str:
    return ",".join(f"{x:g}" for x in values)


def _fmt_z(x: float) -> str:
    # fixed point as the tables print it, scientific where that runs long
    return f"{x:+.4e}" if abs(x) >= 1e6 else f"{x:+.4f}"


def _render_table(rows, combined, tail_v, tail_fraction, out):
    header = ("id", "n", "means", "sds", "V", "Z_V", "Z_C", "case", "")
    body = [
        (
            r.study.id,
            f"{r.study.n:g}",
            _nums(r.study.means),
            _nums(r.study.sds),
            r.v_rendered,
            _fmt_z(r.z_v),
            _fmt_z(r.z_c),
            r.value.case.value,
            "*" if r.notes else "",
        )
        for r in rows
    ]
    widths = [max(len(h), *(len(b[i]) for b in body)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for b in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(b, widths)).rstrip())
    lines.append("")
    prod = f"{_fmt_bound(combined.product_lower)}"
    if combined.product_upper != combined.product_lower:
        prod += f"–{_fmt_bound(combined.product_upper)}"
    post = f"{_fmt_bound(combined.posterior_odds_lower)}"
    if combined.posterior_odds_upper != combined.posterior_odds_lower:
        post += f"–{_fmt_bound(combined.posterior_odds_upper)}"
    lines.append(f"product V: {prod}")
    lines.append(f"posterior odds (prior {combined.prior_odds:g}): {post}")
    count = sum(1 for r in rows if r.value.lower >= tail_v)
    lines.append(
        f"empirical share with V >= {tail_v:g}: {count}/{len(rows)} "
        f"= {tail_fraction:.4f}"
    )
    notes = [(r.study.id, note) for r in rows for note in r.notes]
    if notes:
        lines.append("notes:")
        for sid, note in notes:
            lines.append(f"  study '{sid}': {note}")
    out.write("\n".join(lines) + "\n")


def _json_bound(x: float):
    return None if math.isinf(x) else x


def _render_json(rows, combined, tail_v, tail_fraction, source, errors, out):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": source,
        "mode": rows[0].value.mode.value if rows else None,
        "rows": [
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
        "combined": {
            "prior_odds": combined.prior_odds,
            "product_lower": _json_bound(combined.product_lower),
            "product_upper": _json_bound(combined.product_upper),
            "posterior_odds_lower": _json_bound(combined.posterior_odds_lower),
            "posterior_odds_upper": _json_bound(combined.posterior_odds_upper),
        },
        "empirical_tail": {"v": tail_v, "fraction": tail_fraction},
        "errors": [str(e) for e in errors],
    }
    # one line through the C encoder; ``python -m json.tool`` pretty-prints it
    out.write(json.dumps(doc, sort_keys=True) + "\n")


def cmd_compute(args, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        err.write(f"error: cannot read {args.input}: {exc}\n")
        return EXIT_INPUT
    led, errors = ledger.parse_ledger_lenient(text, source=args.input)
    for e in errors:
        err.write(f"error: {e}\n")
    if errors and args.strict:
        err.write("error: --strict forbids partial output\n")
        return EXIT_INPUT
    if not len(led):
        err.write("error: no studies\n")
        return EXIT_INPUT
    try:
        rows = build_rows(led, args.mode)
        combined = engine.combine(
            [(r.study.id, r.value) for r in rows], prior_odds=args.prior_odds
        )
        tail_v = 2.0
        tail = engine.empirical_tail_fraction([r.value for r in rows], tail_v)
    except (ValueError, ArithmeticError) as exc:
        err.write(f"error: {_arithmetic(exc)}\n")
        return EXIT_COMPUTE
    if args.format == "json":
        _render_json(rows, combined, tail_v, tail, led.source, errors, out)
    else:
        _render_table(rows, combined, tail_v, tail, out)
    return EXIT_INPUT if errors else EXIT_OK


def cmd_threshold(args, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        r = engine.threshold_ratio(args.v)
        p = engine.null_tail_probability(args.v)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    out.write(f"{r:.4f}, {p:.4f}\n")
    return EXIT_OK


def cmd_simulate(args, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        sigma = tuple(float(s) for s in args.sigma.split(","))
        if len(sigma) != 3:
            raise ValueError("--sigma needs exactly three comma-separated values")
        report = simulate.null_exceedance(
            n=args.n, sigma=sigma, v_threshold=args.v, reps=args.reps, seed=args.seed
        )
    except (simulate.ParameterError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ArithmeticError as exc:
        err.write(f"error: {_arithmetic(exc)}\n")
        return EXIT_COMPUTE
    # the shortest label that reads back as v: %g unless it rounds v
    v = f"{report.v_threshold:g}"
    v = v if float(v) == report.v_threshold else repr(report.v_threshold)
    out.write(
        f"reps: {report.reps}  seed: {report.seed}  v: {v}\n"
        f"P(V >= {v}) = {report.exceed_prob:.4f}"
        f"  (mc stderr {report.mc_stderr:.4f})\n"
    )
    return EXIT_OK


def _positive_float(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidential",
        description="Evidential value of three-cell ANOVA summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate a ledger of studies")
    p.add_argument("--input", required=True, help="ledger file (CSV or JSON)")
    p.add_argument("--mode", choices=["paper", "exact"], default="paper")
    p.add_argument("--prior-odds", type=_positive_float, default=1.0)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--strict", action="store_true", help="forbid partial output")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("threshold", help="invert the V >= v condition to |Z_V|")
    p.add_argument("--v", type=float, required=True)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="Monte Carlo null calibration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", required=True, help="three comma-separated sds")
    p.add_argument("--v", type=float, default=2.0)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
