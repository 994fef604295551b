"""Command-line interface: evaluate ledgers, invert thresholds, calibrate.

Exit codes: 0 success, 1 computation error or unwritable output, 2 input/usage
error, 130 interrupted; a closed pipe (``| head``) exits 1 silently.  Commands
return an exit code and their report, or raise; :func:`main` alone writes the
report and turns an exception into one ``error:`` line and its exit code.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
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
_TAIL_V = 2.0  # the footer gives the empirical share of studies with V >= _TAIL_V


def _arithmetic(exc: Exception) -> str:
    # an OverflowError from math.exp reads only "math range error"
    return f"overflow: {exc.args[-1]}" if isinstance(exc, OverflowError) else str(exc)


def _bound(x: float):
    # an end of V, or of a product, as JSON writes it and as the tables print
    # it: its repr rounded half-up to 2 decimals, like the published tables
    if math.isinf(x):
        return "null", "∞"
    text = repr(x)
    return text, "1" if x == 1.0 else str(Decimal(text).quantize(_CENT, ROUND_HALF_UP, _WIDE))


def _ends(lower: float, upper: float):
    """V's ends as ``(JSON lower, rendered, JSON upper)``, each through repr
    once, a point (as every exact value is) once for all three.  Ends that
    agree when rendered collapse to one number, as published tables print them."""
    json_lower, lo = _bound(lower)
    if upper == lower:
        return json_lower, lo, json_lower
    json_upper, hi = _bound(upper)
    return json_lower, lo if lo == hi else f"{lo}–{hi}", json_upper


def render_value(ev: engine.EvidentialValue) -> str:
    """Render V as the tables do: one number, or 'lower–upper' with '∞'."""
    return _ends(ev.lower, ev.upper)[1]


class ReportRow(namedtuple("ReportRow", "study value z_v z_c notes")):
    """One evaluated study of a compute report: its StudySummary, and the EvidentialValue,
    Z_V, Z_C and notes it gave; ``v_rendered`` is V as the tables print it."""

    __slots__ = ()

    v_rendered = property(lambda self: render_value(self.value))


def build_rows(studies, mode: engine.Mode | str) -> list[ReportRow]:
    """Evaluate each study; a math failure is an ArithmeticError naming it."""
    mode = engine.Mode(mode)
    profile_of, value_of = geometry.variance_profile, engine.profile_value
    notes, new, rows = ledger.study_warnings, tuple.__new__, []  # new: a ReportRow, less a frame
    for study in studies:
        try:
            profile = profile_of(study)
            ev = value_of(profile, mode)
        except (ArithmeticError, ValueError) as exc:  # e.g. a math domain error
            raise ArithmeticError(f"study '{study.id}': {_arithmetic(exc)}") from exc
        rows.append(new(ReportRow, (study, ev, profile.z_v, profile.z_c, tuple(notes(study)))))
    return rows


def _nums(values) -> str:
    return ",".join(f"{x:g}" for x in values)


def _fmt_z(x: float) -> str:
    # fixed point as the tables print it, scientific where that runs long
    return f"{x:+.4e}" if abs(x) >= 1e6 else f"{x:+.4f}"


def _render_table(rows, combined, tail_fraction) -> str:
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
    prod = _ends(combined.product_lower, combined.product_upper)[1]
    post = _ends(combined.posterior_odds_lower, combined.posterior_odds_upper)[1]
    lines.append(f"product V: {prod}")
    lines.append(f"posterior odds (prior {combined.prior_odds:g}): {post}")
    studies = len(rows)
    count = round(tail_fraction * studies)  # the count it was divided from
    lines.append(f"empirical share with V >= {_TAIL_V:g}: {count}/{studies} = {tail_fraction:.4f}")
    notes = [f"  study '{r.study.id}': {note}" for r in rows for note in r.notes]
    if notes:
        lines.append("notes:")
        lines += notes
    return "\n".join(lines) + "\n"


def _json_rows(rows) -> str:
    """Report rows as the JSON list of a report's rows, each written as
    json.dumps(..., sort_keys=True) writes its dict: the keys in sorted order,
    floats by repr and an infinite one as null, strings by the encoder's
    escaper (the case, one of three plain words, needs none)."""
    esc, isinf = json.encoder.encode_basestring_ascii, math.isinf
    texts = []
    for (sid, n, (x1, x2, x3), (s1, s2, s3)), value, z_v, z_c, notes in rows:
        lower, rendered, upper = _ends(value.lower, value.upper)
        texts.append(
            f'{{"case": "{value.case._value_}", "id": {esc(sid)}, '
            f'"means": [{x1!r}, {x2!r}, {x3!r}], "n": {n!r}, "notes": [{", ".join(map(esc, notes))}], '
            f'"sds": [{s1!r}, {s2!r}, {s3!r}], "v_lower": {lower}, "v_rendered": {esc(rendered)}, '
            f'"v_upper": {upper}, "z_c": {"null" if isinf(z_c) else repr(z_c)}, '
            f'"z_v": {"null" if isinf(z_v) else repr(z_v)}}}'
        )
    return f"[{', '.join(texts)}]"


def _render_json(rows, mode, combined, tail_fraction, source, errors) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": source,
        "mode": mode,
        "rows": [],
        "combined": {key: None if math.isinf(x) else x for key, x in combined._asdict().items()},
        "empirical_tail": {"v": _TAIL_V, "fraction": tail_fraction},
        "errors": errors,
    }
    # one line, which ``python -m json.tool`` pretty-prints: the frame by
    # json.dumps, and at its empty list the rows' text from _json_rows.
    # Inside a JSON string every '"' is escaped, so that text is the key
    head, _, tail = json.dumps(doc, sort_keys=True).partition('"rows": []')
    return f'{head}"rows": {_json_rows(rows)}{tail}\n'


def cmd_compute(args) -> tuple[int, str]:
    """Evaluate a ledger in this process.  The cyclic garbage collector is off
    while it runs (README)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _compute(args)
    finally:
        if collecting:
            gc.enable()


def _compute(args) -> tuple[int, str]:
    path = ledger._spelled(args.input)  # named on one line, as a cell is
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    source, rows = ledger.document_rows(text, source=path)
    studies, errors = ledger.parse_rows(rows)
    del text, rows  # freed before the studies are evaluated, which reuse the memory
    errors = [str(e) for e in errors]
    for e in errors:
        sys.stderr.write(f"error: {e}\n")
    if errors and args.strict:
        sys.stderr.write("error: --strict forbids partial output\n")
        return EXIT_INPUT, ""
    report = build_rows(studies, args.mode)
    if not report:  # said only where no diagnostic above says why
        if not errors:
            sys.stderr.write("error: no studies\n")
        return EXIT_INPUT, ""
    values = [r.value for r in report]
    combined = engine.combine(values, prior_odds=args.prior_odds)
    tail = engine.empirical_tail_fraction(values, _TAIL_V)
    if args.format == "json":
        out = _render_json(report, args.mode, combined, tail, source, errors)
    else:
        out = _render_table(report, combined, tail)
    return EXIT_INPUT if errors else EXIT_OK, out


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
    report = simulate.null_exceedance(
        n=args.n, sigma=args.sigma.split(","), v_threshold=args.v, reps=args.reps, seed=args.seed
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


#: whether main has registered gc.freeze with atexit: frozen at exit, no object
#: is collected at shutdown, where nothing waits on a collection (README)
_freeze_at_exit = False


def main(argv=None) -> int:
    """Run one command; the one place an exception becomes an exit code."""
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    try:
        args = build_parser().parse_args(argv)
        code, report = args.func(args)
        try:  # the one write of a report, flushed so that its failure is seen here
            sys.stdout.write(report)
            sys.stdout.flush()
        except OSError as exc:
            # Python's recipe: stdout to devnull, so the bytes still in its
            # buffer cannot fail again in the flush at exit (exit code 120)
            os.dup2(null := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            os.close(null)
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
