"""Command-line interface: evaluate ledgers, invert thresholds, calibrate.

Exit codes: 0 success, 1 computation error or unwritable output, 2 input/usage
error, 130 interrupted; a closed pipe (``| head``) exits 1 silently.  Commands
return an exit code and their report, or raise; :func:`main` alone writes the
report and turns an exception into one ``error:`` line and its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from decimal import ROUND_HALF_UP, Context, Decimal

from . import _fork, engine, geometry, ledger, simulate

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


def _interval(lower: float, upper: float) -> str:
    # ends that agree at the rendered precision collapse to a single number,
    # matching how published tables print such rows
    lo, hi = _fmt_bound(lower), _fmt_bound(upper)
    return lo if lo == hi else f"{lo}–{hi}"


def render_value(ev: engine.EvidentialValue) -> str:
    """Render V as the tables do: one number, or 'lower–upper' with '∞'."""
    return _interval(ev.lower, ev.upper)


class ReportRow(namedtuple("ReportRow", "study value v_rendered z_v z_c notes")):
    """One rendered study of a compute report: its StudySummary, and the
    EvidentialValue, rendered V, Z_V, Z_C and notes it gave."""

    __slots__ = ()


def build_rows(studies, mode: engine.Mode | str) -> list[ReportRow]:
    """Evaluate each study; a math failure is an ArithmeticError naming it."""
    mode = engine.Mode(mode)
    rows = []
    for study in studies:
        try:
            profile = geometry.variance_profile(study)
            ev = engine.profile_value(profile, mode)
        except (ArithmeticError, ValueError) as exc:  # e.g. a math domain error
            raise ArithmeticError(f"study '{study.id}': {_arithmetic(exc)}") from exc
        notes = tuple(ledger.study_warnings(study))
        rows.append(ReportRow(study, ev, render_value(ev), profile.z_v, profile.z_c, notes))
    return rows


def _nums(values) -> str:
    return ",".join(f"{x:g}" for x in values)


def _fmt_z(x: float) -> str:
    # fixed point as the tables print it, scientific where that runs long
    return f"{x:+.4e}" if abs(x) >= 1e6 else f"{x:+.4f}"


def _table_rows(rows):
    """A run of report rows as the cells and note lines of a table."""
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
    notes = [f"  study '{r.study.id}': {note}" for r in rows for note in r.notes]
    return body, notes


def _render_table(runs, studies, combined, tail_v, tail_fraction) -> str:
    header = ("id", "n", "means", "sds", "V", "Z_V", "Z_C", "case", "")
    body = [cells for run_body, _ in runs for cells in run_body]
    widths = [max(len(h), *(len(b[i]) for b in body)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for b in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(b, widths)).rstrip())
    lines.append("")
    prod = _interval(combined.product_lower, combined.product_upper)
    post = _interval(combined.posterior_odds_lower, combined.posterior_odds_upper)
    lines.append(f"product V: {prod}")
    lines.append(f"posterior odds (prior {combined.prior_odds:g}): {post}")
    count = round(tail_fraction * studies)  # the count it was divided from
    lines.append(f"empirical share with V >= {tail_v:g}: {count}/{studies} = {tail_fraction:.4f}")
    notes = [line for _, run_notes in runs for line in run_notes]
    if notes:
        lines.append("notes:")
        lines += notes
    return "\n".join(lines) + "\n"


def _json_bound(x: float):
    return None if math.isinf(x) else x


def _json_rows(rows) -> str:
    """A run of report rows as the JSON list of a report's rows."""
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


def _render_json(runs, mode, combined, tail_v, tail_fraction, source, errors) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": source,
        "mode": mode.value,
        "rows": [],
        "combined": {
            "prior_odds": combined.prior_odds,
            "product_lower": _json_bound(combined.product_lower),
            "product_upper": _json_bound(combined.product_upper),
            "posterior_odds_lower": _json_bound(combined.posterior_odds_lower),
            "posterior_odds_upper": _json_bound(combined.posterior_odds_upper),
        },
        "empirical_tail": {"v": tail_v, "fraction": tail_fraction},
        "errors": errors,
    }
    # one line through the C encoder; ``python -m json.tool`` pretty-prints
    # it.  The runs' rows go in at the empty list: inside a JSON string
    # every '"' is escaped, so that text can only be the key
    head, _, tail = json.dumps(doc, sort_keys=True).partition('"rows": []')
    rows = ", ".join(text[1:-1] for text in runs if text != "[]")
    return f'{head}"rows": [{rows}]{tail}\n'


#: fewest ledger rows worth a process of their own in compute: on a 2-CPU VM two
#: processes won 5 of 5 sets at 400 rows (12-18 ms against 14-21 ms), 2 of 5 at 200
_PROCESS_ROWS = 200


def cmd_compute(args) -> tuple[int, str]:
    """Evaluate a ledger; one of 2 * _PROCESS_ROWS rows or more that
    :func:`ledger.may_split` is split into contiguous runs, one per CPU
    (:mod:`_fork`), and its report is the same bytes as one run's."""
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from exc
    source, rows = ledger.document_rows(text, source=args.input)
    mode = engine.Mode(args.mode)
    render = _json_rows if args.format == "json" else _table_rows

    def run(start, stop):
        # rows start..stop-1 as marshal data: error texts, (lower, upper,
        # case) values, rendered rows, and the first evaluation error's text
        studies, errors = ledger.parse_rows(rows[start:stop])
        errors = [str(e) for e in errors]
        try:
            report = build_rows(studies, mode)
        except ArithmeticError as exc:
            return errors, [], None, str(exc)
        values = [(r.value.lower, r.value.upper, r.value.case.value) for r in report]
        return errors, values, render(report), None

    # a ledger that may not be split is one chunk, so one run
    chunk = 1 if ledger.may_split(rows) else len(rows)
    results = _fork.forked_map(run, len(rows), chunk, _PROCESS_ROWS)
    errors = [e for result in results for e in result[0]]
    for e in errors:
        sys.stderr.write(f"error: {e}\n")
    if errors and args.strict:
        sys.stderr.write("error: --strict forbids partial output\n")
        return EXIT_INPUT, ""
    failure = next((result[3] for result in results if result[3] is not None), None)
    if failure is not None:  # a failed run has studies, so this may come first
        raise ArithmeticError(failure)
    values = [
        engine.EvidentialValue(lo, hi, engine.Case(c), mode) for r in results for lo, hi, c in r[1]
    ]
    if not values:
        sys.stderr.write("error: no studies\n")
        return EXIT_INPUT, ""
    combined = engine.combine(values, prior_odds=args.prior_odds)
    tail_v = 2.0
    tail = engine.empirical_tail_fraction(values, tail_v)
    renders = [result[2] for result in results]
    if args.format == "json":
        report = _render_json(renders, mode, combined, tail_v, tail, source, errors)
    else:
        report = _render_table(renders, len(values), combined, tail_v, tail)
    return EXIT_INPUT if errors else EXIT_OK, report


def cmd_threshold(args) -> tuple[int, str]:
    r = engine.threshold_ratio(args.v)
    p = engine.null_tail_probability(args.v)
    return EXIT_OK, f"{r:.4f}, {p:.4f}\n"


def cmd_simulate(args) -> tuple[int, str]:
    try:
        simulate.np  # loads numpy as simulate loads it for every caller
    except ImportError as exc:
        sys.stderr.write(f"error: simulate needs numpy: {exc}\n")
        return EXIT_COMPUTE, ""
    sigma = tuple(float(s) for s in args.sigma.split(","))
    if len(sigma) != 3:
        raise ValueError("--sigma needs exactly three comma-separated values")
    report = simulate.null_exceedance(
        n=args.n, sigma=sigma, v_threshold=args.v, reps=args.reps, seed=args.seed
    )
    # the shortest label that reads back as v: %g unless it rounds v
    v = f"{report.v_threshold:g}"
    v = v if float(v) == report.v_threshold else repr(report.v_threshold)
    return EXIT_OK, (
        f"reps: {report.reps}  seed: {report.seed}  v: {v}\n"
        f"P(V >= {v}) = {report.exceed_prob:.4f}"
        f"  (mc stderr {report.mc_stderr:.4f})\n"
    )


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
    """Run one command; the one place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        code, report = args.func(args)
        try:  # the one write of a report, flushed so that its failure is seen here
            sys.stdout.write(report)
            sys.stdout.flush()
        except OSError as exc:
            # Python's recipe: stdout to devnull, so the bytes still in its
            # buffer cannot fail again in the flush at exit (exit code 120)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):  # a reader that left is no error
                sys.stderr.write(f"error: cannot write output: {exc}\n")
            return EXIT_COMPUTE
        return code
    except KeyboardInterrupt:
        message, code = "interrupted", 130
    except MemoryError as exc:  # numpy's names the array it could not allocate
        message, code = f"out of memory: {exc}" if str(exc) else "out of memory", EXIT_COMPUTE
    except (ArithmeticError, OSError) as exc:  # an OSError here is not the report's write
        message, code = _arithmetic(exc), EXIT_COMPUTE
    except ValueError as exc:
        message, code = str(exc), EXIT_INPUT
    sys.stderr.write(f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
