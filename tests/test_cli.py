import contextlib
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evidential
from evidential.cli import _json_rows, build_rows, main, render_value
from evidential.engine import Case, EvidentialValue, Mode, combine, evidential_value
from evidential.ledger import StudyLedger, StudySummary, document_rows, parse_rows

from helpers import (
    CorrelationTriple,
    json_rows_oracle,
    ledger_to_mapping,
    random_study,
    serialize_ledger,
)

INF = math.inf
HEADER_LINE = b"id,n,x1,x2,x3,s1,s2,s3\n"
DATA = Path(evidential.__path__[0]) / "data"  # the bundled corpora


@pytest.fixture()
def suspect_csv(tmp_path, suspect):
    path = tmp_path / "suspect.csv"
    path.write_text(serialize_ledger(suspect), encoding="utf-8")
    return path


@pytest.fixture()
def reference_csv(tmp_path, reference):
    path = tmp_path / "reference.csv"
    path.write_text(serialize_ledger(reference), encoding="utf-8")
    return path


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- rendering ---------------------------------------------------------------

def test_render_point_interval_and_unbounded():
    assert render_value(EvidentialValue(3.9228, 3.9228, Case.MIDDLE)) == "3.92"
    assert render_value(EvidentialValue(4.9476, 9.4121, Case.BELOW)) == "4.95–9.41"
    assert render_value(EvidentialValue(13.9492, INF, Case.BELOW)) == "13.95–∞"
    assert render_value(EvidentialValue(1.0, 1.0, Case.ABOVE)) == "1"
    assert render_value(EvidentialValue(INF, INF, Case.BELOW)) == "∞"
    # interval endpoints that agree at 2 decimals collapse, as printed tables do
    assert render_value(EvidentialValue(2.7173, 2.7184, Case.BELOW)) == "2.72"


def test_rounding_is_half_up():
    assert render_value(EvidentialValue(2.675, 2.675, Case.MIDDLE)) == "2.68"
    assert render_value(EvidentialValue(1.005, 1.005, Case.MIDDLE)) == "1.01"


# --- compute ------------------------------------------------------------------

TABLE1_RENDERED = {
    "1": "3.92", "2": "4.68", "3": "4.26", "4": "2.72", "5": "3.21",
    "6": "4.95–9.41", "7": "4.43", "8": "13.95–∞",
    "9a": "2.10", "9b": "3.95", "10a": "4.94", "10b": "10.17–23.92",
}


def test_compute_table_matches_published_column(suspect_csv):
    code, out, err = run(["compute", "--input", str(suspect_csv)])
    assert code == 0 and err == ""
    lines = out.splitlines()
    for sid, want in TABLE1_RENDERED.items():
        row = next(l for l in lines if l.startswith(sid + " "))
        assert want in row


REFERENCE_RENDERED = {
    "Hagtvedt-l": "1.40", "Hagtvedt-2": "1.17", "Hunt": "1", "Jia": "1",
    "Kanten-l": "1.00",  # published as 1.001; table output is fixed at 2 decimals
    "Kanten-2": "1.75", "Lerouge-l": "1", "Lerouge-2": "12.23–13.01",
    "Lerouge-3": "1.01", "Lerouge-4": "1.21", "Malkoc": "5.26–5.27",
    "Polman": "1.34", "Rook-l": "1", "Rook-2": "1.69", "Smith-l": "1.01",
    "Smith-2": "1.26", "Smith-3": "1", "Smith-4": "4.04", "Smith-5": "1.63",
    "Smith-6": "1", "Smith-7": "1.02",
}


def test_compute_reference_rendered_column(reference):
    from evidential.cli import build_rows

    rows = build_rows(reference, Mode.PAPER)
    got = {r.study.id: r.v_rendered for r in rows}
    assert got == REFERENCE_RENDERED


def test_records_are_read_only(reference):
    from evidential.cli import build_rows
    from evidential.geometry import variance_profile
    from evidential.simulate import ModelParams, SimulationReport

    study = reference.studies[0]
    records = [
        study,
        reference,
        variance_profile(study),
        CorrelationTriple(0.0, 0.0, 0.0),
        evidential_value(study),
        combine([evidential_value(study)]),
        ModelParams((0, 0, 0), (1, 1, 1), 20),
        SimulationReport(1000, 1, 2.0, 0.25, 0.01),
        build_rows([study], Mode.PAPER)[0],
    ]
    for record in records:
        for name in (*getattr(record, "_fields", ("studies", "source")), "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_compute_table_is_byte_stable(suspect_csv):
    outputs = {run(["compute", "--input", str(suspect_csv)])[1] for _ in range(3)}
    assert len(outputs) == 1


def test_compute_footer_reports_products_and_tail(reference_csv):
    code, out, _ = run(["compute", "--input", str(reference_csv)])
    assert code == 0
    assert "empirical share with V >= 2: 3/21 = 0.1429" in out
    assert "posterior odds" in out
    # non-integer n rows carry a note marker and a notes section
    assert "notes:" in out
    assert "not an integer" in out


def test_compute_footer_prints_the_count_behind_the_share(tmp_path):
    # one unbounded V among 49: 1 / 49 * 49 is just below 1 in floats
    rows = b"a,20,1,2,3,1,1,1\n" + b"".join(b"b%d,20,10,0,0,1,1,1\n" % k for k in range(48))
    path = tmp_path / "share.csv"
    path.write_bytes(HEADER_LINE + rows)
    code, out, _ = run(["compute", "--input", str(path)])
    assert code == 0
    assert "empirical share with V >= 2: 1/49 = 0.0204\n" in out


def test_compute_footer_collapses_like_the_rows(tmp_path):
    # a below-regime interval whose ends agree at 2 decimals prints one
    # number in its row, and so do the product and the posterior odds
    path = tmp_path / "one.csv"
    path.write_bytes(HEADER_LINE + b"a,15,4.5,3.8,3.05,0.96,0.5,0.71\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 0 and err == ""
    ev = evidential_value(StudySummary("a", 15, (4.5, 3.8, 3.05), (0.96, 0.5, 0.71)))
    assert ev.lower < ev.upper
    lines = out.splitlines()
    assert lines[1].split()[4] == "4.92"
    assert "product V: 4.92" in lines and "posterior odds (prior 1): 4.92" in lines


def test_compute_table_prints_huge_statistics_in_scientific_notation(tmp_path):
    # Z_V and Z_C are 7.3e300 here: fixed point would print 300 digits each
    path = tmp_path / "huge.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1e300,-1e300,1e300,1,1,1\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 0 and err == ""
    assert max(len(line) for line in out.splitlines()) <= 80
    assert "+7.3030e+300  +7.3030e+300  above" in out


def test_compute_json_writes_statistics_beyond_the_float_range_as_null(tmp_path):
    # Z_V is about 7e600 here; JSON has no Infinity, so it is null like V's ∞
    path = tmp_path / "huge.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1e300,-1e300,1e300,1e-300,1e-300,1e-300\n")
    code, out, err = run(["compute", "--input", str(path), "--format", "json"])
    assert code == 0 and err == ""
    (row,) = json.loads(out, parse_constant=lambda name: pytest.fail(name))["rows"]
    assert (row["z_v"], row["z_c"], row["case"]) == (None, None, "above")


def test_compute_footer_renders_products_beyond_default_decimal_precision(
    tmp_path, suspect
):
    # 50 copies of study 1 (V = 3.92) multiply to ~4.6e29: a finite product
    # with more integer digits than the default decimal context holds
    row = suspect.studies[0]
    studies = [StudySummary(f"r{k}", row.n, row.means, row.sds) for k in range(50)]
    path = tmp_path / "many.csv"
    path.write_text(serialize_ledger(StudyLedger(studies)), encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 0 and err == ""
    product = combine([evidential_value(s, Mode.PAPER) for s in studies]).product_lower
    assert 1e26 <= product < INF
    line = next(l for l in out.splitlines() if l.startswith("product V: "))
    assert float(line.removeprefix("product V: ")) == pytest.approx(product, rel=1e-12)


def golden_report(monkeypatch, mode):
    """The one-line JSON report of the bundled suspect corpus in *mode*, and
    its golden bytes in tests/data."""
    monkeypatch.chdir(DATA)
    argv = ["compute", "--input", "suspect_studies.csv", "--mode", mode, "--format", "json"]
    golden = Path(__file__).parent / "data" / f"suspect_{mode}_report.json"
    return run(argv), (0, golden.read_text(encoding="utf-8"), "")


def test_compute_json_report_is_the_golden_bytes(monkeypatch):
    # the one-line report of the bundled suspect corpus, its key order too
    report, golden = golden_report(monkeypatch, "exact")
    assert report == golden


def test_compute_paper_json_report_is_the_golden_bytes(monkeypatch):
    # 4 interval rows, one with an unbounded (null) upper end: each end's own text
    report, golden = golden_report(monkeypatch, "paper")
    assert report == golden
    rows = json.loads(golden[1])["rows"]
    assert sum(r["v_lower"] != r["v_upper"] for r in rows) == 4
    assert [r["id"] for r in rows if r["v_upper"] is None] == ["8"]


MIXED_GOLDEN = {
    "mixed_exact_report.json": ["--mode", "exact", "--format", "json"],
    "mixed_paper_report.json": ["--mode", "paper", "--format", "json"],
    "mixed_exact_table.txt": ["--mode", "exact"],
}


@pytest.mark.parametrize("golden", MIXED_GOLDEN)
def test_compute_mixed_ledger_is_the_golden_bytes(golden):
    # a hand-written JSON ledger: quotient and small n with their notes,
    # integer and text cells, zero contrasts (a point at infinity, or an
    # interval to it in paper mode), every case, ids that need escaping or
    # are JSON numbers, a -0.0 mean, and 8 rejected entries
    data = Path(__file__).parent / "data"
    argv = ["compute", "--input", str(data / "mixed_ledger.json"), *MIXED_GOLDEN[golden]]
    errors = json.loads((data / "mixed_exact_report.json").read_text(encoding="utf-8"))["errors"]
    stderr = "".join(f"error: {e}\n" for e in errors)
    assert run(argv) == (2, (data / golden).read_text(encoding="utf-8"), stderr)
    if golden.endswith(".json"):
        rows = json.loads((data / golden).read_text(encoding="utf-8"))["rows"]
        assert {r["case"] for r in rows} == {"above", "middle", "below"}
        assert sum(map(len, (r["notes"] for r in rows))) == 6 and len(errors) == 8
        to_infinity = any(r["v_lower"] is not None and r["v_upper"] is None for r in rows)
        assert to_infinity == ("paper" in golden)


#: studies for the row template: ids that the escaper changes or that read as
#: a number, both notes, unbounded ends, statistics beyond the float range,
#: and -0.0, subnormal and huge numbers
TEMPLATE_STUDIES = [
    ('say "hi"', 20, (2.47, 3.04, 3.68), (1.21, 0.72, 0.68)),
    ("back\\slash/tab\tnul\x00del\x7f", 20, (1, 2, 4), (1, 1, 1)),
    ("größe–∞ \u2028", 20, (1, 2, 4), (1, 2, 3)),
    ("astral \U0001f600 lone \ud800", 20, (1, 2, 4), (1, 2, 3)),
    ("12345", 20, (1, 2, 4), (1, 2, 3)),
    ("quotient", 141 / 6, (1, 2, 4), (1, 2, 3)),
    ("small quotient", 4.5, (1, 2, 4), (1, 2, 3)),
    ("unbounded", 20, (1, 2, 3), (1, 1, 1)),
    ("huge z", 20, (1e300, -1e300, 1e300), (1e-300, 1e-300, 1e-300)),
    ("signed zero", 20, (-0.0, 1, -0.0), (1, 2, 3)),
    ("subnormal", 20, (5e-324, 0, 1), (5e-324, 1, 2)),
    ("big", 1e300, (1e300, 2, -3), (1e300, 1, 1e300)),
]


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_json_rows_are_the_bytes_of_json_dumps(mode, suspect, reference):
    # the row template against a dict per row through json.dumps(sort_keys=True)
    studies = [StudySummary(*fields) for fields in TEMPLATE_STUDIES]
    rows = build_rows([*studies, *suspect, *reference], mode)
    assert _json_rows(rows) == json_rows_oracle(rows)
    assert _json_rows(rows[:1]) == json_rows_oracle(rows[:1]) and _json_rows([]) == "[]"
    by_id = {r.study.id: r for r in rows}
    assert len(by_id["small quotient"].notes) == 2 and by_id["unbounded"].value.upper == INF
    assert by_id["huge z"].z_v == by_id["huge z"].z_c == INF


#: a float of any sign, written by repr in fixed point or, below 1e-4 and
#: from 1e16 on, in exponent notation, or a zero of either sign
_MAGNITUDES = st.floats(1e-300, 1e-4) | st.floats(1e-4, 1e16) | st.floats(1e16, 1e300)
_SIGNED = st.sampled_from([0.0, -0.0]) | st.tuples(_MAGNITUDES, st.booleans()).map(
    lambda m: -m[0] if m[1] else m[0])


@st.composite
def json_row_studies(draw):
    """A valid study: an id of any characters (escaped, non-ASCII, astral,
    lone surrogates, or digits), an integer-valued or quotient n, and means
    with a zero contrast (paper upper end ∞), a contrast of 0-3 of its sds
    (every case), or free."""
    chars = st.characters(exclude_categories=()) | st.characters(min_codepoint=0xD800,
                                                                 max_codepoint=0xDFFF)
    sid = draw(st.text(chars, min_size=1, max_size=8)
               | st.sampled_from(["12", "1e5", "-0.0", 'say "hi"', "a\\b"]))
    n = draw(st.integers(1, 10**6).map(float)
             | st.builds(lambda a, b: a / b, st.integers(1, 1000), st.integers(1, 60)))
    s1, s2, s3 = sds = draw(st.tuples(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES)
                            | st.tuples(*[st.floats(0.1, 10)] * 3))
    kind = draw(st.sampled_from(["zero", "scaled", "free"]))
    if kind == "free":
        means = draw(st.tuples(_SIGNED, _SIGNED, _SIGNED))
    else:
        base = draw(_SIGNED) if kind == "zero" else draw(st.sampled_from([-0.0, 0.0, 1.5]))
        t = 0.0 if kind == "zero" else draw(st.floats(0, 3))
        means = (base, base, base + t * math.hypot(s1, 2 * s2, s3) / math.sqrt(n))
    return StudySummary(sid, n, means, sds)


@settings(max_examples=300, deadline=None)
@given(st.lists(json_row_studies(), max_size=6), st.sampled_from(["paper", "exact"]))
def test_json_rows_match_json_dumps_on_any_valid_studies(studies, mode):
    rows = []
    for study in studies:
        try:
            rows += build_rows([study], mode)
        except ArithmeticError:  # a V beyond the float range is an error, not a row
            pass
    assert _json_rows(rows) == json_rows_oracle(rows)


def test_compute_json_round_trips(suspect_csv, suspect):
    code, out, _ = run(["compute", "--input", str(suspect_csv), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 12
    from evidential.engine import evidential_value

    by_id = {row["id"]: row for row in doc["rows"]}
    assert by_id["8"]["v_upper"] is None  # unbounded encodes as null
    from evidential.engine import z_c_statistic, z_v_statistic

    for study in suspect:
        ev = evidential_value(study, Mode.PAPER)
        row = by_id[study.id]
        assert row["v_lower"] == pytest.approx(ev.lower, rel=1e-12)
        assert row["z_v"] == pytest.approx(z_v_statistic(study), rel=1e-12)
        assert row["z_c"] == pytest.approx(z_c_statistic(study), rel=1e-12)
        assert row["n"] == study.n
        assert tuple(row["means"]) == study.means
    assert doc["combined"]["product_upper"] is None
    assert doc["empirical_tail"]["v"] == 2.0


def test_compute_exact_mode(suspect_csv):
    code, out, _ = run(["compute", "--input", str(suspect_csv), "--mode", "exact"])
    assert code == 0
    row8 = next(l for l in out.splitlines() if l.startswith("8 "))
    assert "∞" in row8


def test_compute_prior_odds_scales_posterior(suspect_csv):
    _, out, _ = run([
        "compute", "--input", str(suspect_csv), "--format", "json",
        "--prior-odds", "0.001",
    ])
    doc = json.loads(out)
    assert doc["combined"]["posterior_odds_lower"] == pytest.approx(
        0.001 * doc["combined"]["product_lower"], rel=1e-12
    )


@pytest.mark.parametrize("odds", ["0", "nan", "inf"])
def test_compute_rejects_prior_odds_that_are_not_positive_and_finite(
    suspect_csv, odds, capsys
):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", str(suspect_csv), "--prior-odds", odds])
    assert exc.value.code == 2
    assert "--prior-odds: must be positive and finite" in capsys.readouterr().err


def test_compute_arithmetic_failure_names_the_study(tmp_path):
    # the contrast is 1e-320 against s0 = sqrt(6): V is about 3.3e319
    path = tmp_path / "odd.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1e-320,0,0,1,1,1\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out, err) == (1, "", "error: study 'a': overflow: math range error\n")


def test_compute_refuses_a_product_beyond_the_float_range(tmp_path):
    # each V is 3.3e149, so the product of three is 3.6e448: not unbounded
    path = tmp_path / "big.csv"
    rows = b"a,20,1e-150,0,0,1,1,1\nb,20,1e-150,0,0,1,1,1\nc,20,1e-150,0,0,1,1,1\n"
    path.write_bytes(HEADER_LINE + rows)
    for fmt in ("table", "json"):
        code, out, err = run(["compute", "--input", str(path), "--format", fmt])
        assert (code, out, err) == (
            1, "", "error: overflow: the product of the values exceeds the float range\n"
        ), fmt


@pytest.mark.parametrize(
    "rows, prior_odds, what",
    [
        # V is 3.3e299, finite, and 1e20 times it is not
        (b"a,20,1e-300,0,0,1,1,1\n", "1e20", "the product of the values times the prior odds"),
        # the product of two is beyond the float range before 1e-20 could bring it back
        (b"a,20,1e-300,0,0,1,1,1\nb,20,1e-300,0,0,1,1,1\n", "1e-20", "the product of the values"),
    ],
    ids=["posterior odds", "product"],
)
def test_compute_names_what_overflows_with_prior_odds(tmp_path, rows, prior_odds, what):
    path = tmp_path / "big.csv"
    path.write_bytes(HEADER_LINE + rows)
    for fmt in ("table", "json"):
        argv = ["compute", "--input", str(path), "--prior-odds", prior_odds, "--format", fmt]
        assert run(argv) == (1, "", f"error: overflow: {what} exceeds the float range\n"), fmt


def test_build_rows_computes_one_contrast_per_study(monkeypatch, reference):
    from evidential import geometry
    from evidential.cli import build_rows

    calls = []
    original = geometry.contrast

    def counted(means):
        calls.append(means)
        return original(means)

    # every module binding of contrast, as a tracer would see it
    for name, module in list(sys.modules.items()):
        if name.startswith("evidential.") and getattr(module, "contrast", None) is original:
            monkeypatch.setattr(module, "contrast", counted)
    for mode in (Mode.PAPER, Mode.EXACT):
        calls.clear()
        build_rows(reference, mode)
        assert len(calls) == len(reference), mode


def test_compute_reads_a_byte_order_mark(tmp_path, suspect_csv):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + suspect_csv.read_bytes())
    assert run(["compute", "--input", str(path)]) == run(
        ["compute", "--input", str(suspect_csv)]
    )


def test_compute_missing_file():
    code, out, err = run(["compute", "--input", "/nonexistent.csv"])
    assert code == 2 and out == "" and "cannot read" in err


def test_compute_empty_ledger(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,n,x1,x2,x3,s1,s2,s3\n", encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 2 and "no studies" in err and out == ""


MALFORMED_LEDGERS = {
    # file name: (content, what the diagnostic names)
    "bad_header.csv": (b"idx,n,x1\n1,2,3\n", "row 1: header must be"),
    "no_header.csv": (b"# nothing but a comment\n", "no_header.csv: no header row"),
    "array.json": (b"[1,2]\n", "array.json: a JSON ledger must be an object"),
    "latin1.csv": (HEADER_LINE + "Müller,20,1,2,3,1,1,1\n".encode("latin-1"), "cannot read"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LEDGERS))
def test_compute_malformed_ledger_is_an_input_error(tmp_path, name):
    content, names = MALFORMED_LEDGERS[name]
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and names in err
    if names == "cannot read":
        assert str(path) in err


def test_compute_names_a_path_that_breaks_a_line_on_one_line(tmp_path):
    # a line break in the file name is spelled as a cell's is, so the name
    # cannot forge a second diagnostic line
    path = tmp_path / "bad\nproduct V: 1.json"
    path.write_bytes(b'{"studies": [')
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"error: {tmp_path}/bad\\nproduct V: 1.json: invalid JSON: ")
    path.unlink()
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {tmp_path}/bad\\nproduct V: 1.json: ")


@pytest.mark.parametrize("value", ["NaN", '{"x": [1, 2]}', "null"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_compute_refuses_a_json_source_that_is_not_a_string(tmp_path, value, fmt):
    path = tmp_path / "source.json"
    entry = '{"id": "a", "n": 20, "means": [1, 2, 3], "sds": [1, 1, 1]}'
    path.write_text('{"source": %s, "studies": [%s]}' % (value, entry), encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: a JSON ledger's 'source' must be a string\n"


def json_loads_refuses(name):
    # JSON that json.loads refuses other than by JSONDecodeError: nested past
    # the recursion limit (RecursionError), or an integer of more digits
    # than int() converts (ValueError)
    if name == "deep.json":
        return b'{"studies": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    entry = b'{"id": "a", "n": %s, "means": [1, 2, 3], "sds": [1, 1, 1]}' % (b"1" * (limit + 1))
    return b'{"studies": [%s]}' % entry


@pytest.mark.parametrize("name", ["deep.json", "digits.json"])
def test_compute_json_that_json_loads_refuses_is_invalid_json(tmp_path, name):
    # in-process and cold: the one error of a malformed document, which
    # names the file; no traceback
    path = tmp_path / name
    path.write_bytes(json_loads_refuses(name))
    proc = cold(["compute", "--input", str(path)])
    out, err = proc.communicate(timeout=60)
    for code, out, err in (run(["compute", "--input", str(path)]), (proc.returncode, out, err)):
        first, *rest = err.splitlines()
        assert (code, out, rest) == (2, "", [])
        assert first.startswith(f"error: {path}: invalid JSON: ")


@pytest.mark.parametrize("content", [
    b'{"studies": [',  # truncated JSON
    b"idx,n,x1\n1,2,3\n",  # a bad header
    b"# nothing but a comment\n",  # no header
    HEADER_LINE + b"a,20,1,2,3,1,0,1\nb,20,1,2\n",  # only bad rows
], ids=["truncated-json", "bad-header", "no-header", "only-bad-rows"])
def test_compute_says_no_studies_only_where_no_other_diagnostic_says_why(tmp_path, content):
    # each diagnostic names its cause, so none is followed by a bare "no studies"
    path = tmp_path / "ledger"
    path.write_bytes(content)
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "no studies" not in err


#: zero contrasts whose sds give 2*s2 = s1 + s3 in decimal, which floats miss
#: by about 1e-16: the eight such rows of inputs.generate(s, 3000) for s = 1..40
#: (seeds 6, 9, 15, 18, 24, 24, 25, 36), then 2.99,2.98,2.97, and one row
#: whose sds give 2*s2 = hypot(s1, s3)
CLOSING_ROWS = (
    "5.49,4.32,3.15,2.64,2.47,2.3", "6.49,5.86,5.23,2.78,2.22,1.66",
    "2.0,3.39,4.78,0.58,0.64,0.7", "6.65,8.13,9.61,1.47,1.14,0.81",
    "6.01,6.89,7.77,0.44,0.46,0.48", "0.81,1.74,2.67,0.75,0.83,0.91",
    "10.07,8.89,7.71,2.86,2.68,2.5", "7.0,6.0,5.0,0.46,0.42,0.38",
    "1,2,3,2.99,2.98,2.97", "1,2,3,0.16,0.17,0.30",
)


def test_compute_gives_the_point_infinity_where_printed_sds_close_the_paper_floor(tmp_path):
    # the paper floor is zero, as the exact one is, so V is the point ∞ in both modes
    path = tmp_path / "closing.csv"
    path.write_text(HEADER_LINE.decode() + "".join(
        f"r{k},20,{row}\n" for k, row in enumerate(CLOSING_ROWS)), encoding="utf-8")
    count = len(CLOSING_ROWS)
    for mode in ("paper", "exact"):
        code, out, err = run(["compute", "--input", str(path), "--mode", mode])
        assert (code, err) == (0, "")
        assert [line.split()[4] for line in out.splitlines()[1:count + 1]] == ["∞"] * count
        code, out, err = run(["compute", "--input", str(path), "--mode", mode, "--format", "json"])
        rows = json.loads(out)["rows"]
        assert [(r["v_lower"], r["v_upper"], r["v_rendered"]) for r in rows] == [
            (None, None, "∞")] * count, mode


def test_compute_partial_output_and_strict(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "id,n,x1,x2,x3,s1,s2,s3\n"
        "good,20,2.47,3.04,3.68,1.21,0.72,0.68\n"
        "bad,20,1,2,3,1,0,1\n",
        encoding="utf-8",
    )
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 2
    assert "good" in out  # valid rows still reported
    assert "bad" in err
    code, out, err = run(["compute", "--input", str(path), "--strict"])
    assert code == 2 and out == ""
    assert "partial output" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_compute_refuses_by_name_an_id_no_report_can_write(tmp_path, fmt):
    # JSON can spell a lone surrogate, which no UTF-8 report can write: the
    # row is refused, named as any id that does not parse, in both formats
    entry = '{"id": "%s", "n": 20, "means": [1, 2, 4], "sds": [1, 1, 1]}'
    path = tmp_path / "lone.json"
    path.write_text('{"studies": [%s, %s]}' % (entry % "a", entry % "\\ud800"), encoding="utf-8")
    proc = cold(["compute", "--input", str(path), "--format", fmt])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, "error: studies[1], column id: could not parse '\\ud800'\n")
    if fmt == "json":
        assert [row["id"] for row in json.loads(out)["rows"]] == ["a"]
    else:
        assert out.splitlines()[1].startswith("a ")


def test_compute_refuses_an_id_that_would_forge_lines_of_the_table(tmp_path):
    # an id with line breaks would print lines of its own, such as a fake
    # footer above the real one: it is refused, on one line of stderr
    forged = "s1\nproduct V: 1.00\nposterior odds (prior 1): 1.00"
    entry = '{"id": %s, "n": 20, "means": [1, 2, %d], "sds": [1, 1, 1]}'
    path = tmp_path / "forged.json"
    entries = entry % (json.dumps(forged), 3), entry % ('"ok"', 4)
    path.write_text('{"studies": [%s, %s]}' % entries, encoding="utf-8")
    proc = cold(["compute", "--input", str(path)])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, "error: studies[0], column id: could not parse "
                                         "'s1\\nproduct V: 1.00\\nposterior odds (prior 1): 1.00'\n")
    assert out.splitlines()[1].startswith("ok ") and out.count("product V:") == 1


def test_compute_names_the_row_of_an_invalid_study_whose_id_repeats(tmp_path):
    # an invalid 'a' and, later, two valid ones: each diagnostic names its row
    rows = [("a", "1,0,1"), ("b", "1,1,1"), ("c", "1,1,1"), ("a", "1,1,1"), ("a", "1,1,1")]
    path = tmp_path / "repeats.csv"
    path.write_text(HEADER_LINE.decode() + "".join(f"{i},20,1,2,3,{sds}\n" for i, sds in rows),
                    encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, err) == (2, "error: row 2: study 'a': sds must be positive\n"
                              "error: row 6: duplicate study id 'a' (first at row 5)\n")
    assert [line.split()[0] for line in out.splitlines()[1:4]] == ["b", "c", "a"]
    entries = [{"id": i, "n": 20, "means": [1, 2, 3], "sds": [float(s) for s in sds.split(",")]}
               for i, sds in rows]
    path.write_text(json.dumps({"studies": entries}), encoding="utf-8")
    assert run(["compute", "--input", str(path)]) == (code, out, err.replace(
        "row 2", "studies[0]").replace("row 5", "studies[3]").replace("row 6", "studies[4]"))


# --- robustness properties ----------------------------------------------------

#: what a drawn row may carry besides valid cells: a defect that makes it an
#: error, or a spelling that both formats read as the valid cell
ROW_DEFECTS = (None, "unparsed cell", "bad sd", "repeated id", "quotient n", "padded id",
               "control in id")
#: controls that a CSV line can hold (str.splitlines ends a line at others)
CSV_CONTROLS = ["\x00", "\x08", "\x1f", "\x7f", "\x9f"]


@st.composite
def ledger_rows(draw):
    """Rows as ``(cells, id, valid)``: the cells as JSON values (a CSV line
    writes each as ``str`` spells it), the id they are read as (None where
    it does not parse), and whether they make a study unless the id repeats.
    A numeric id is drawn only as ``str`` spells it: a JSON number is read
    as ``str`` of its value, so that is the one spelling CSV reads as the
    same id (JSON's 1e2 is the id '100.0', CSV's '1e2')."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        ident = draw(st.sampled_from(["a", "b", "s 1"]) | st.integers(0, 99)
                     | st.floats(allow_nan=False, allow_infinity=False))
        n = draw(st.integers(2, 60) | st.floats(2, 60))
        means = draw(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
        sds = draw(st.lists(st.floats(0.01, 100), min_size=3, max_size=3))
        cells, study_id, valid = [ident, n, *means, *sds], str(ident), True
        if draw(st.booleans()):  # JSON may also give a number as its text
            cells = list(map(str, cells))
        defect = draw(st.sampled_from(ROW_DEFECTS))
        if defect == "unparsed cell":
            column = draw(st.integers(0, 7))
            cells[column] = draw(st.sampled_from(["", "x", "1/0", "1e2e"] if column else [""]))
            valid = False
        elif defect == "bad sd":
            cells[draw(st.integers(5, 7))] = draw(
                st.sampled_from([0, -1.5, "0", "-0.0", "inf", "nan", "1e999"]))
            valid = False
        elif defect == "repeated id" and rows:
            (cells[0], *_), study_id, _ = draw(st.sampled_from(rows))
        elif defect == "quotient n":
            cells[1] = draw(st.sampled_from(["141/6", "9/2", "100/3", "1/-6"]))
            valid = cells[1] != "1/-6"
        elif defect == "padded id":
            cells[0] = draw(st.sampled_from([" ", "\t"])) + study_id + " "
        elif defect == "control in id":
            cells[0] = study_id + draw(st.sampled_from(CSV_CONTROLS)) + "x"
        if defect == "control in id" or cells[0] == "":
            study_id = None
        rows.append((cells, study_id, valid and study_id is not None))
    return rows


def as_documents(rows):
    """*rows* as a CSV ledger and as a JSON one, with a function that names
    the rows of either as ``<k>`` for the k-th drawn row."""
    csv = HEADER_LINE.decode() + "".join(",".join(map(str, row[0])) + "\n" for row in rows)
    entries = [{"id": c[0], "n": c[1], "means": c[2:5], "sds": c[5:]} for c, _, _ in rows]

    def by_place(text):
        text = re.sub(r"row (\d+)", lambda m: f"<{int(m[1]) - 2}>", text)
        return re.sub(r"studies\[(\d+)\]", r"<\1>", text)

    return csv, json.dumps({"studies": entries}), by_place


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(max_examples=100, deadline=None)
@given(ledger_rows(), st.sampled_from(["paper", "exact"]))
def test_a_ledger_reads_alike_as_csv_and_as_json(scratch, rows, mode):
    # the same studies, and the same errors once rows are named by place,
    # each led by its row's name; compute gives the same table and diagnostics
    csv, doc, by_place = as_documents(rows)
    results = []
    for name, text in (("ledger.csv", csv), ("ledger.json", doc)):
        studies, errors = parse_rows(document_rows(text)[1])
        errors = [by_place(str(e)) for e in errors]
        assert all(re.match(r"<\d+>[:,] ", e) for e in errors), errors
        (scratch / name).write_text(text, encoding="utf-8")
        code, out, err = run(["compute", "--input", str(scratch / name), "--mode", mode])
        results.append((studies, errors, code, out, by_place(err)))
    assert results[0] == results[1]
    accepted = []  # the ids of the valid rows, each at its first valid row
    for _, study_id, valid in rows:
        if valid and study_id not in accepted:
            accepted.append(study_id)
    assert [s.id for s in results[0][0]] == accepted


#: the ledgers mutated below: both bundled corpora and the mixed JSON ledger
MUTATED_LEDGERS = [(DATA / name).read_bytes()
                   for name in ("suspect_studies.csv", "reference_studies.csv")]
MUTATED_LEDGERS.append((Path(__file__).parent / "data" / "mixed_ledger.json").read_bytes())
MUTATION_TOKENS = (b",", b"\n", b'"', b"]", b"1e999", b"/0", b"\x00", "\u2028".encode())


@st.composite
def mutated_ledgers(draw):
    # at a drawn place, overwrite as many bytes as a token has with it,
    # delete that many, or insert it
    data = draw(st.sampled_from(MUTATED_LEDGERS))
    at, token = draw(st.integers(0, len(data))), draw(st.sampled_from(MUTATION_TOKENS))
    put, cut = draw(st.sampled_from([(token, len(token)), (b"", len(token)), (token, 0)]))
    return data[:at] + put + data[at + cut:]


@settings(max_examples=250, deadline=None)
@given(mutated_ledgers())
def test_a_mutated_ledger_ends_in_a_report_or_diagnostics_that_name_their_cause(scratch, data):
    path = scratch / "mutated"
    path.write_bytes(data)
    cause = re.compile(rf"error: ({re.escape(str(path))}: |cannot read {re.escape(str(path))}: "
                       r"|(row \d+|studies\[\d+\])[:,] |study '|overflow: |no studies$)")
    for mode in ("paper", "exact"):
        for fmt in ("table", "json"):
            argv = ["compute", "--input", str(path), "--mode", mode, "--format", fmt]
            code, out, err = run(argv)
            assert code in (0, 1, 2) and (code == 0) == (err == ""), (code, err)
            assert all(cause.match(line) for line in err.splitlines()), err
            if fmt == "json" and out:
                json.loads(out, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))


# --- compute of a large ledger ----------------------------------------------

LARGE_ROWS = 2400


def large_ledger(tmp_path, fmt, edits=(), count=LARGE_ROWS, source="large"):
    """*count* random studies as a CSV or JSON ledger file.  Each ``(k,
    line)`` edit replaces the k-th study with a CSV line, or in JSON with
    an entry."""
    rng = np.random.default_rng(count)
    ledger = StudyLedger([random_study(rng, f"s{k}") for k in range(count)], source)
    if fmt == "csv":
        lines = serialize_ledger(ledger).splitlines()
        for k, line in edits:
            lines[k + 1] = line
        text = "\n".join(lines) + "\n"
    else:
        doc = ledger_to_mapping(ledger)
        for k, entry in edits:
            doc["studies"][k] = entry
        text = json.dumps(doc)
    path = tmp_path / f"large.{fmt}"
    path.write_text(text, encoding="utf-8")
    return path


#: paper and exact mode, table and JSON, then --strict
OPTIONS = [[f"--mode={m}", f"--format={f}"] for m in ("paper", "exact") for f in ("table", "json")]
OPTIONS.append(["--strict"])

#: large ledgers: format, edits, source, and the exit codes of paper and
#: exact mode, table and JSON, then of --strict.  Errors are reported in row
#: order, and an evaluation error is the first failing study's
LARGE_CASES = {
    # a JSON source that holds the text the rows are spliced in at
    "json": ("json", [], 'a "rows": [] source', [0, 0, 0, 0, 0]),
    "csv": ("csv", [], "large", [0, 0, 0, 0, 0]),
    # blank ids are parse errors, not repeats
    "blank_ids": ("csv", [(5, ",20,1,2,3,1,1,1"), (900, ",20,1,2,3,1,1,1")], "large", [2] * 5),
    # parse errors near the start, middle and end
    "bad_rows": (
        "csv",
        [(5, "bad,20,x,0,0,1,1,1"), (1000, "short,20,1"), (2300, "neg,20,1,2,3,1,-1,1")],
        "large",
        [2, 2, 2, 2, 2],
    ),
    "bad_entries": ("json", [(7, 5), (1700, {"id": "k", "n": 20})], "large", [2, 2, 2, 2, 2]),
    # a means list of two, after entries that are no object or miss a key
    "bad_means": (
        "json",
        [
            (7, 5),
            (1700, {"id": "k", "n": 20}),
            (2000, {"id": "m", "n": 20, "means": [1, 2], "sds": [1, 1, 1]}),
        ],
        "large",
        [2, 2, 2, 2, 2],
    ),
    # a third of the entries are null
    "empty_run": ("json", [(k, None) for k in range(800, 1600)], "large", [2, 2, 2, 2, 2]),
    # V beyond the float range in two studies, after a bad row
    "v_overflow": (
        "csv",
        [(300, "bad,20,x"), (1000, "a,20,1e-320,0,0,1,1,1"), (2000, "b,20,1e-320,0,0,1,1,1")],
        "large",
        [1, 1, 1, 1, 2],
    ),
    # each V is 3.3e149: the product of three exceeds the float range
    "product_overflow": (
        "csv",
        [(k, f"big{k},20,1e-150,0,0,1,1,1") for k in (100, 1200, 2300)],
        "large",
        [1, 1, 1, 1, 1],
    ),
}


@pytest.fixture()
def forced_compute(monkeypatch):
    """Run compute with the number of processes ``_fork`` gives forced, and
    no fork allowed; give its exit code, stdout and stderr."""
    from evidential import _fork

    def no_fork():
        raise AssertionError("compute forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)

    def compute(argv, processes):
        monkeypatch.setattr(_fork, "processes", lambda units, least: processes)
        return run(["compute", *argv])

    return compute


@pytest.mark.parametrize("case", LARGE_CASES)
def test_compute_split_across_processes_gives_the_one_process_report(
    tmp_path, forced_compute, case
):
    # compute evaluates in one process even where _fork would split
    fmt, edits, source, codes = LARGE_CASES[case]
    path = large_ledger(tmp_path, fmt, edits, source=source)
    got = []
    for options in OPTIONS:
        argv = ["--input", str(path), *options]
        one = forced_compute(argv, 1)
        assert forced_compute(argv, 3) == one, (case, options)
        got.append(one[0])
    assert got == codes


def test_compute_forks_no_process(tmp_path, monkeypatch):
    # where _fork would give two processes and no fork may happen, compute
    # gives the report of a plain run: it evaluates every study here
    from evidential import _fork

    edits = [(5, "bad,20,x,0,0,1,1,1"), (600, "big,20,1e-150,0,0,1,1,1")]
    path = large_ledger(tmp_path, "csv", edits, count=1000)
    plain = [run(["compute", "--input", str(path), *options]) for options in OPTIONS]

    def no_fork():
        raise AssertionError("compute forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(_fork, "processes", lambda units, least: 2)
    assert [run(["compute", "--input", str(path), *options]) for options in OPTIONS] == plain
    assert [code for code, _, _ in plain] == [2] * 5 and all(out for _, out, _ in plain[:4])


def test_compute_split_names_each_json_entry_by_its_place(tmp_path, forced_compute):
    # a bad entry is named by its place in the whole ledger
    path = large_ledger(tmp_path, "json", LARGE_CASES["bad_means"][1])
    for processes in (1, 3):
        code, out, err = forced_compute(["--input", str(path)], processes)
        assert code == 2 and out
        assert err == (
            "error: studies[7]: expected an object with keys id, n, means, sds\n"
            "error: studies[1700]: missing key 'means'\n"
            "error: studies[2000]: means and sds must be lists of three numbers\n"
        )


def test_compute_with_a_repeated_id_runs_as_one_run(tmp_path, forced_compute):
    # the one run checks all rows for repeats: a repeat is found wherever it is
    path = large_ledger(tmp_path, "csv", [(2000, "s5,20,1,2,3,1,1,1")])
    one = forced_compute(["--input", str(path)], 1)
    assert forced_compute(["--input", str(path)], 3) == one
    code, _, err = one
    assert (code, err) == (2, "error: row 2002: duplicate study id 's5' (first at row 7)\n")


# --- threshold ------------------------------------------------------------------

def test_threshold_command_published_values():
    code, out, _ = run(["threshold", "--v", "2"])
    assert code == 0
    assert out == "0.3191, 0.2504\n"


def test_threshold_command_at_ten():
    code, out, _ = run(["threshold", "--v", "10"])
    assert code == 0
    assert out == "0.0608, 0.0485\n"


def test_threshold_command_near_one():
    code, out, _ = run(["threshold", "--v", "1.0001"])
    assert code == 0
    assert out.startswith("0.99")


def test_threshold_command_rejects_v_below_one():
    code, out, err = run(["threshold", "--v", "0.5"])
    assert code == 2 and "must exceed 1" in err


# --- simulate --------------------------------------------------------------------

def test_simulate_command_deterministic():
    argv = ["simulate", "--n", "20", "--sigma", "1,1,1", "--v", "2",
            "--reps", "2000", "--seed", "42"]
    first = run(argv)
    second = run(argv)
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "P(V >= 2) = 0." in out
    assert "mc stderr" in out


def test_simulate_command_rejects_zero_reps():
    code, _, err = run(["simulate", "--n", "20", "--sigma", "1,1,1",
                        "--reps", "0", "--seed", "1"])
    assert code == 2 and "reps" in err


def test_simulate_command_rejects_a_negative_seed():
    code, out, err = run(["simulate", "--n", "20", "--sigma", "1,1,1",
                          "--reps", "2000", "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: seed must be a non-negative integer\n")


def test_simulate_command_needs_three_sigmas():
    for sigma in ("1,1", "1,1,1,1", "1,2", "1,,1", "a,b,c", "1,1,1,", "", "1e400,1,1"):
        code, out, err = run(["simulate", "--n", "20", "--sigma", sigma, "--reps", "2000"])
        assert (code, out, err) == (2, "", "error: sigma must be three finite numbers\n"), sigma


def test_simulate_command_needs_two_observations():
    for n in ("0", "-3", "1"):
        code, out, err = run(["simulate", "--n", n, "--sigma", "1,1,1", "--reps", "2000"])
        assert (code, out, err) == (2, "", "error: n must be an integer of at least 2\n"), n
    # sigma is checked first
    code, out, err = run(["simulate", "--n", "1", "--sigma", "1,,1", "--reps", "2000"])
    assert (code, out, err) == (2, "", "error: sigma must be three finite numbers\n")


def run_or_usage(argv):
    """:func:`run`, where argparse's own usage error is the exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = None
    return code, out.getvalue(), err.getvalue()


_ARGUMENT_CELLS = (
    st.floats(0.01, 100).map(repr)
    | st.sampled_from(["", "0", "1", "-1", "2", "inf", "-inf", "nan", "1e400", "1e300", "1e-159",
                       "x", "one", " 1", "1_0", "0x1"])
    | st.floats().map(repr)
    | st.integers(-5, 40).map(str)
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-5, 40).map(str) | st.sampled_from(["", "inf", "nan", "1e400", "20.0", "x"]),
    st.lists(_ARGUMENT_CELLS, min_size=3, max_size=3).map(",".join)
    | st.lists(_ARGUMENT_CELLS, max_size=5).map(",".join),
    _ARGUMENT_CELLS,
)
def test_simulate_and_threshold_arguments_end_cleanly(n, sigma, v):
    # any text: a report, argparse's usage, or one diagnostic and no report;
    # never a traceback or a warning (N <= 40 keeps each run in one process)
    for argv in (["simulate", "--n", n, "--sigma", sigma, "--reps", "1000"],
                 ["threshold", "--v", v]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_or_usage(argv)
        if code is None:
            assert err.startswith("usage: evidential") and out == "", argv
        elif code != 0:
            assert code == 2 and out == "", (argv, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_simulate_defaults_to_v_2_and_seed_0():
    argv = ["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "1000"]
    code, out, err = run(argv)
    assert (code, out, err) == run([*argv, "--v", "2", "--seed", "0"])
    assert (code, err) == (0, "") and out.startswith("reps: 1000  seed: 0  v: 2\n")


@pytest.mark.parametrize(
    "argv, missing",
    [
        ([], "command"),
        (["threshold"], "--v"),
        (["simulate", "--sigma", "1,1,1", "--reps", "1000"], "--n"),
        (["simulate", "--n", "20", "--reps", "1000"], "--sigma"),
        (["simulate", "--n", "20", "--sigma", "1,1,1"], "--reps"),
    ],
)
def test_a_missing_command_or_option_is_a_usage_error(argv, missing, capsys):
    # argparse's own exit 2 and usage, never a traceback from the command
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: evidential")
    assert err.endswith(f"error: the following arguments are required: {missing}\n")


def test_simulate_command_rejects_bad_sigma():
    code, _, err = run(["simulate", "--n", "20", "--sigma", "1,1",
                        "--reps", "2000", "--seed", "1"])
    assert code == 2 and "sigma" in err
    for n, sigma, problem in (
        ("20", "nan,1,1", "sigma must be three finite numbers"),
        ("20", "inf,1,1", "sigma must be three finite numbers"),
        # finite sigmas whose sample sds overflow or vanish: the study of
        # the first such replication is refused, without a numpy warning;
        # at 1e-159 only a few sds underflow to 0, in replications that
        # are far from the threshold
        ("20", "1e300,1,1", "study 'sim': sds must be finite"),
        ("2", "1e-159,1,1", "study 'sim': sds must be positive"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["simulate", "--n", n, "--sigma", sigma,
                                  "--reps", "2000", "--seed", "1"])
        assert (code, out, err) == (2, "", f"error: {problem}\n"), sigma


def test_simulate_command_reports_an_overflow(monkeypatch):
    # sds of 1e154 are decided in numpy until one overflows and is refused
    code, out, err = run(["simulate", "--n", "2", "--sigma", "1e154,1e154,1e154",
                          "--reps", "1000", "--seed", "3"])
    assert (code, out, err) == (2, "", "error: study 'sim': sds must be finite\n")
    # an arithmetic failure of the estimate itself is a computation error
    from evidential import simulate

    def overflowing(**kwargs):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(simulate, "null_exceedance", overflowing)
    code, out, err = run(["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "1000"])
    assert (code, out, err) == (1, "", "error: overflow: Numerical result out of range\n")


def test_simulate_command_reports_running_out_of_memory(monkeypatch):
    # a huge --n asks numpy for a block it cannot allocate; the test only
    # raises the error, so that no test allocates a huge array
    from evidential import simulate

    message = "Unable to allocate 2.91 TiB for an array with shape (1, 4, 100000000000)"
    for args, problem in (((message,), f"out of memory: {message}"), ((), "out of memory")):

        def exhausted(**kwargs):
            raise MemoryError(*args)

        monkeypatch.setattr(simulate, "null_exceedance", exhausted)
        code, out, err = run(["simulate", "--n", "100000000000", "--sigma", "1,1,1",
                              "--reps", "1000"])
        assert (code, out, err) == (1, "", f"error: {problem}\n")


def test_simulate_command_labels_v_so_that_it_reads_back():
    # %g where it reads back as v (so 2 stays "2"), repr where %g rounds
    for v, label in (("2", "2"), ("1e300", "1e+300"),
                     ("1.0000001", "1.0000001"), ("2.0000001", "2.0000001")):
        code, out, _ = run(["simulate", "--n", "5", "--sigma", "1,1,1", "--v", v,
                            "--reps", "1000", "--seed", "1"])
        assert code == 0
        first, second = out.splitlines()
        assert first == f"reps: 1000  seed: 1  v: {label}"
        assert second.startswith(f"P(V >= {label}) = 0."), out


def test_simulate_command_refuses_a_non_finite_v():
    for v in ("inf", "1e400", "nan"):
        code, out, err = run(["simulate", "--n", "20", "--sigma", "1,1,1", "--v", v,
                              "--reps", "1000", "--seed", "1"])
        assert (code, out, err) == (2, "", "error: v must exceed 1 and be finite\n"), v


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_command_split_across_processes_reports_the_serial_error(monkeypatch):
    from evidential import _fork

    monkeypatch.setattr(_fork, "processes", lambda units, least: 2)
    code, out, err = run(["simulate", "--n", "20", "--sigma", "1e300,1,1",
                          "--reps", "12289", "--seed", "1"])
    assert (code, out, err) == (2, "", "error: study 'sim': sds must be finite\n")
    assert_no_child_left()


SEED_42 = ["simulate", "--n", "20", "--sigma", "1,1,1", "--v", "2", "--reps", "100000",
           "--seed", "42"]


def cold(argv, env=(), flags=(), code=None, **kwargs):
    # a fresh `python -m evidential.cli` as a shell starts it: its OpenBLAS
    # thread count its own, its stdout block-buffered; *env* adds variables,
    # *flags* interpreter options, and *code* runs in place of the module
    drop = ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")
    env = {**{k: v for k, v in os.environ.items() if k not in drop}, **dict(env)}
    env["PYTHONPATH"] = os.path.dirname(evidential.__path__[0])
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    main = ["-m", "evidential.cli"] if code is None else ["-c", code]
    command = [sys.executable, *flags, *main, *argv]
    return subprocess.Popen(command, env=env, **kwargs)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_output(argv):
    """The ``# -> `` lines the README shows under ``evidential`` *argv*."""
    lines = README.read_text(encoding="utf-8").splitlines()
    at = lines.index("evidential " + " ".join(argv)) + 1
    shown = []
    while at < len(lines) and lines[at].startswith("# -> "):
        shown.append(lines[at].removeprefix("# -> "))
        at += 1
    return shown


def readme_seed_42_lines():
    expected = readme_output(SEED_42)
    assert expected[1].startswith("P(V >= 2) = 0.2473 "), expected
    return expected


def test_cold_simulate_prints_the_readme_lines():
    # the command's own process rule, forking where it may
    out, err = cold(SEED_42).communicate(timeout=120)
    assert (out.splitlines(), err) == (readme_seed_42_lines(), "")


def test_cold_simulate_names_the_bad_parameter():
    for argv, problem in ((["--n", "20", "--sigma", "1,,1"], "sigma must be three finite numbers"),
                          (["--n", "1", "--sigma", "1,1,1"], "n must be an integer of at least 2")):
        proc = cold(["simulate", *argv, "--reps", "1000"])
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (2, "", f"error: {problem}\n"), argv


def test_cold_threshold_prints_the_readme_line():
    argv = ["threshold", "--v", "2"]
    out, err = cold(argv).communicate(timeout=60)
    assert (out.splitlines(), err) == (readme_output(argv), "")
    assert out == "0.3191, 0.2504\n"


def test_the_readme_library_example_runs_as_shown():
    # the python block under "## Library", in a fresh interpreter
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(evidential.__path__[0])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), code
    assert done.stdout.strip()


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "fork"),
    reason="lists open descriptors in /proc; forks",
)
def test_simulate_without_a_descriptor_for_a_pipe_runs_serially():
    # no descriptor is left for the pipe of a second process, which the
    # serial run does without: its run is counted here, as a failed fork's is
    code = (
        "import contextlib, os, resource, signal, sys  # signal: as a split run does\n"
        "from evidential import _fork, cli, simulate\n"
        "simulate.null_exceedance(20, (1, 1, 1), 2.0, 1000, 0)  # loads what a run needs\n"
        "_fork.processes = lambda units, least: 2\n"
        "open_fds = len(os.listdir('/proc/self/fd')) - 1  # less listdir's own\n"
        "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (open_fds, hard))\n"
        "with contextlib.suppress(OSError):  # and fill any gap below the limit\n"
        "    while True:\n"
        "        os.dup(2)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(evidential.__path__[0])
    proc = subprocess.run([sys.executable, "-c", code, *SEED_42], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == readme_seed_42_lines()


def interrupt_once(proc, started, target):
    # SIGINT to the caller alone, or to its whole group as a terminal sends
    # it, once started() says the command has begun its work (seconds of
    # it): the command must end as interrupted, and no process may outlive it
    try:
        deadline = time.monotonic() + 60
        while not started():
            assert proc.poll() is None and time.monotonic() < deadline, "never started"
            time.sleep(0.002)
        if target == "caller":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:  # the group outlives the command only through a leftover child
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
    assert (proc.returncode, err) == (130, "error: interrupted\n")
    assert not left


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="reads a process's children in /proc; forks only with 2+ CPUs",
)
@pytest.mark.parametrize("target", ["caller", "group"])
def test_ctrl_c_leaves_no_simulate_process(target):
    # interrupted as soon as a child exists (even before fork returns in the
    # caller): none may finish its run before the command ends
    proc = cold(["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "10000000"],
                start_new_session=True)
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"

    def forked():
        try:
            with open(children) as listing:
                return bool(listing.read().split())
        except FileNotFoundError:
            if proc.poll() is None:
                pytest.skip("this kernel lists no children in /proc")
            return False

    interrupt_once(proc, forked, target)


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT to a process group")
@pytest.mark.parametrize("target", ["caller", "group"])
def test_ctrl_c_leaves_no_compute_process(tmp_path, target):
    # interrupted once build_rows has begun its 20 000 studies (0.4 s of
    # work or more), which a wrapper marks by making a file
    path = large_ledger(tmp_path, "csv", count=20_000)
    begun = tmp_path / "begun"
    code = (
        "import sys\n"
        "from evidential import cli\n"
        "build_rows = cli.build_rows\n"
        "def marked(studies, mode):\n"
        f"    open({str(begun)!r}, 'w').close()\n"
        "    return build_rows(studies, mode)\n"
        "cli.build_rows = marked\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["compute", "--input", str(path), "--mode", "exact"]
    proc = cold(argv, code=code, start_new_session=True)
    interrupt_once(proc, begun.exists, target)


def test_ctrl_c_is_one_line_and_exit_130(monkeypatch, suspect_csv):
    from evidential import cli

    def interrupted(studies, mode):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_rows", interrupted)
    assert run(["compute", "--input", str(suspect_csv)]) == (130, "", "error: interrupted\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}])
def test_output_that_cannot_be_written_is_one_line_and_exit_1(suspect_csv, env):
    # buffered, the report fails in the flush and its bytes stay in the
    # buffer, where the flush at exit would fail again; unbuffered, in the write
    with open("/dev/full", "w") as full:
        argv = ["compute", "--input", str(suspect_csv), "--mode", "exact"]
        proc = cold(argv, env, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def test_an_os_error_outside_the_write_is_not_called_one(monkeypatch, suspect_csv):
    from evidential import cli

    def out_of_descriptors(studies, mode):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(cli, "build_rows", out_of_descriptors)
    code, out, err = run(["compute", "--input", str(suspect_csv)])
    assert (code, out, err) == (1, "", "error: [Errno 24] Too many open files\n")


def test_a_value_error_in_evaluation_is_a_computation_error(monkeypatch, tmp_path):
    # a math domain error names its study and exits 1, as an overflow does
    from evidential import geometry

    def domain_error(study):
        raise ValueError("math domain error")

    monkeypatch.setattr(geometry, "variance_profile", domain_error)
    path = tmp_path / "one.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1,2,3,1,1,1\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out, err) == (1, "", "error: study 'a': math domain error\n")


def test_a_closed_pipe_exits_1_without_a_message(suspect_csv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = cold(["compute", "--input", str(suspect_csv)], stdout=write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
def test_a_failed_write_leaves_no_descriptor_open(monkeypatch):
    # stdout goes to devnull after a failed write; that descriptor is closed
    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    before, codes = open_descriptors(), []
    for _ in range(5):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        with open(write, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            codes.append(main(["threshold", "--v", "2"]))
    monkeypatch.undo()
    assert (codes, open_descriptors()) == ([1] * 5, before)


# --- exit --------------------------------------------------------------------------

def test_main_freezes_the_objects_at_exit_with_one_handler():
    # in a fresh interpreter: two calls register one handler, which freezes
    code = (
        "import atexit, contextlib, gc, io\n"
        "from evidential.cli import main\n"
        "before = atexit._ncallbacks()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = main(['threshold', '--v', '2']), main(['threshold', '--v', '2'])\n"
        "print(codes, atexit._ncallbacks() - before, gc.get_freeze_count())\n"
        "atexit._run_exitfuncs()\n"
        "print(gc.get_freeze_count() > 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(evidential.__path__[0])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(0, 0) 1 0\nTrue\n", "")


# --- the cyclic garbage collector ---------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_compute_runs_without_the_collector_and_restores_its_setting(
    monkeypatch, suspect_csv, enabled
):
    # off while compute runs, and as the caller had it after a report and
    # after each kind of error
    import evidential.cli as cli

    seen = []
    build = cli.build_rows
    monkeypatch.setattr(cli, "build_rows", lambda *a: seen.append(gc.isenabled()) or build(*a))
    overflow = suspect_csv.parent / "overflow.csv"
    overflow.write_text("id,n,x1,x2,x3,s1,s2,s3\na,20,1e-320,0,0,1,1,1\n", encoding="utf-8")
    cases = [([str(suspect_csv)], 0), (["/nonexistent.csv"], 2), ([str(overflow)], 1)]
    was = gc.isenabled()
    try:
        for argv, code in cases:
            (gc.enable if enabled else gc.disable)()
            assert run(["compute", "--input", *argv])[0] == code
            assert gc.isenabled() is enabled, argv
        assert seen == [False, False]
    finally:
        (gc.enable if was else gc.disable)()


def test_compute_leaves_cycles_that_do_not_grow_with_the_studies(tmp_path, suspect_csv):
    # what a collection finds after a run without the collector is the same
    # for 12 studies as for 400: compute makes no cycle per study
    rng = np.random.default_rng(400)
    ledger = StudyLedger([random_study(rng, f"s{k}") for k in range(400)])
    big = tmp_path / "big.json"
    big.write_text(json.dumps(ledger_to_mapping(ledger)), encoding="utf-8")
    was = gc.isenabled()
    found = {}
    try:
        for path in (suspect_csv, big, suspect_csv, big):
            argv = ["compute", "--input", str(path), "--mode", "exact", "--format", "json"]
            gc.disable()
            gc.collect()
            assert run(argv)[0] == 0
            found.setdefault(path.name, set()).add(gc.collect())
    finally:
        (gc.enable if was else gc.disable)()
    assert found["big.json"] == found["suspect.csv"] and len(found["big.json"]) == 1, found


DEV_MODE_CASES = [
    *(["compute", "--input", str(DATA / name), "--format", fmt]
      for name in ("suspect_studies.csv", "reference_studies.csv") for fmt in ("table", "json")),
    ["threshold", "--v", "2"],
    ["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "2000", "--seed", "42"],
]


@pytest.mark.parametrize("argv", DEV_MODE_CASES, ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_a_cold_run_in_dev_mode_leaves_no_resource_for_a_collection(argv):
    # -X dev warns of a file or socket left to the collector; -W error makes
    # that, or any other warning, an error on stderr
    out, err = cold(argv, flags=("-X", "dev", "-W", "error")).communicate(timeout=120)
    assert err == ""
    assert run(argv) == (0, out, "")


# --- entry point -------------------------------------------------------------------

def test_main_dispatches(capsys):
    assert main(["threshold", "--v", "2"]) == 0
    assert capsys.readouterr().out == "0.3191, 0.2504\n"


@pytest.mark.parametrize(
    "argv", [["--help"], *([cmd, "--help"] for cmd in ("compute", "threshold", "simulate"))]
)
def test_help_exits_0_with_the_usage_on_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: evidential")
    assert err == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compute"])  # missing --input
    assert exc.value.code == 2
