import json
import re

import pytest

from evidential.ledger import (
    COLUMNS,
    LedgerError,
    StudyLedger,
    StudySummary,
    load_ledger,
    parse_ledger,
    parse_ledger_lenient,
    study_warnings,
    validate,
)

from helpers import ledger_to_mapping, serialize_ledger

HEADER = ",".join(COLUMNS)

GOOD = StudySummary("good", 20, (1, 2, 3), (1, 1, 1))
ALSO_GOOD = StudySummary("also-good", 15, (1, 2, 3), (2, 2, 2))

#: each rendering with the name its errors give the k-th study (0-based); a
#: leading byte-order mark changes nothing
FORMATS = (
    ("csv", lambda k: f"row {k + 2}"),
    ("json", lambda k: f"studies[{k}]"),
    ("csv+bom", lambda k: f"row {k + 2}"),
    ("json+bom", lambda k: f"studies[{k}]"),
)


def render(fmt, studies, edits=()):
    """*studies* as CSV (``serialize_ledger``) or JSON (``ledger_to_mapping``).

    Each ``(k, column, cell)`` edit replaces one cell of the k-th study:
    with the text of *cell* in CSV, with the JSON value *cell* in JSON.  A
    ``+bom`` format starts with a UTF-8 byte-order mark.
    """
    if fmt.endswith("+bom"):
        return "\ufeff" + render(fmt.removesuffix("+bom"), studies, edits)
    ledger = StudyLedger(tuple(studies))
    if fmt == "csv":
        lines = serialize_ledger(ledger).splitlines()
        for k, column, cell in edits:
            cells = lines[k + 1].split(",")
            cells[COLUMNS.index(column)] = str(cell)
            lines[k + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    doc = ledger_to_mapping(ledger)
    for k, column, cell in edits:
        entry, i = doc["studies"][k], COLUMNS.index(column)
        if i < 2:
            entry[column] = cell
        else:
            entry["means" if i < 5 else "sds"][(i - 2) % 3] = cell
    return json.dumps(doc)


def test_parse_single_row_with_spaces():
    text = HEADER + "\n1, 20, 2.47,3.04,3.68, 1.21,0.72,0.68\n"
    led = parse_ledger(text)
    assert len(led) == 1
    s = led.studies[0]
    assert s.id == "1"
    assert s.n == 20.0
    assert s.means == (2.47, 3.04, 3.68)
    assert s.sds == (1.21, 0.72, 0.68)


def test_parse_rational_n():
    text = HEADER + "\nHagtvedt-l, 141/6, 4.39,3.97,3.84, 0.76,1.26,1.14\n"
    led = parse_ledger(text)
    assert led.studies[0].n == 23.5
    for fmt, where in FORMATS:
        led = parse_ledger(render(fmt, [GOOD], [(0, "n", "141/6")]))
        assert led.studies[0].n == 23.5, fmt
        # quotients are read in the n column only
        with pytest.raises(LedgerError, match=re.escape(f"{where(0)}, column x1")):
            parse_ledger(render(fmt, [GOOD], [(0, "x1", "141/6")]))
        # a quotient is the correctly rounded float of its exact value
        led = parse_ledger(render(fmt, [GOOD], [(0, "n", "100/3")]))
        assert led.studies[0].n == 100 / 3, fmt
        # a negative one is a number, refused by the row rules; a zero
        # denominator, or a value beyond the float range, is no number
        _, errors = parse_ledger_lenient(render(fmt, [GOOD], [(0, "n", "1/-6")]))
        assert [str(e) for e in errors] == ["study 'good': n must be positive"], fmt
        for cell in ("1/0", "1" * 400 + "/3"):
            with pytest.raises(LedgerError, match=re.escape(f"{where(0)}, column n: could not")):
                parse_ledger(render(fmt, [GOOD], [(0, "n", cell)]))


def test_parse_rejects_zero_sd():
    text = HEADER + "\nbad,20,1,2,3,1.0,0,1.0\n"
    with pytest.raises(LedgerError, match="sds must be positive") as exc:
        parse_ledger(text)
    assert exc.value.study_id == "bad"


def test_parse_errors_name_row_and_column():
    text = HEADER + "\nok,20,1,2,3,1,1,1\nshort,20,1,2\n"
    with pytest.raises(LedgerError, match="row 3"):
        parse_ledger(text)
    text = HEADER + "\nok,20,1,2,x,1,1,1\n"
    with pytest.raises(LedgerError, match="row 2, column x3"):
        parse_ledger(text)
    for fmt, where in FORMATS:
        text = render(fmt, [GOOD, ALSO_GOOD], [(1, "x3", "x")])
        with pytest.raises(LedgerError, match=re.escape(f"{where(1)}, column x3")) as exc:
            parse_ledger(text)
        assert exc.value.column == "x3" and exc.value.study_id == "also-good"
        # every unparseable cell of a row is reported
        _, errors = parse_ledger_lenient(render(fmt, [GOOD], [(0, "n", "?"), (0, "s2", "")]))
        assert [e.column for e in errors] == ["n", "s2"], fmt


def test_json_refuses_what_is_not_a_number_or_a_row():
    # bools and nulls are not numbers, and are quoted as JSON spells them
    for column, cell in (("n", True), ("s3", False), ("x2", None)):
        text = render("json", [GOOD, ALSO_GOOD], [(1, column, cell)])
        message = f"studies[1], column {column}: could not parse '{json.dumps(cell)}'"
        with pytest.raises(LedgerError, match=re.escape(message)):
            parse_ledger(text)
    # a string is not a list of means, and every key is required
    doc = ledger_to_mapping(StudyLedger((GOOD, ALSO_GOOD)))
    doc["studies"][1]["means"] = "123"
    with pytest.raises(LedgerError, match=re.escape("studies[1]: means and sds must be lists")):
        parse_ledger(json.dumps(doc))
    for key in ("id", "n", "means", "sds"):
        doc = ledger_to_mapping(StudyLedger((GOOD, ALSO_GOOD)))
        del doc["studies"][1][key]
        led, errors = parse_ledger_lenient(json.dumps(doc))
        assert [s.id for s in led] == ["good"]
        assert [str(e) for e in errors] == [f"studies[1]: missing key '{key}'"]
    doc["studies"][1] = [1, 2, 3]
    with pytest.raises(LedgerError, match=re.escape("studies[1]: expected an object")):
        parse_ledger(json.dumps(doc))


def test_ids_are_non_empty_text_or_json_numbers():
    # an empty id, or a JSON id that is neither a string nor a number, is
    # refused rather than turned into text like 'None' or "{'a': 1}"
    for fmt, where in FORMATS:
        bad_ids = ("", None, True, [1], {"a": 1}) if fmt.startswith("json") else ("",)
        for cell in bad_ids:
            text = render(fmt, [GOOD, ALSO_GOOD], [(1, "id", cell)])
            led, errors = parse_ledger_lenient(text)
            assert [s.id for s in led] == ["good"], (fmt, cell)
            spelled = "" if cell == "" else json.dumps(cell)
            assert [str(e) for e in errors] == [
                f"{where(1)}, column id: could not parse '{spelled}'"
            ], (fmt, cell)
            assert (errors[0].column, errors[0].study_id) == ("id", None)
        # a number keeps its text as an id
        if fmt.startswith("json"):
            led = parse_ledger(render(fmt, [GOOD, ALSO_GOOD], [(0, "id", 7), (1, "id", 7.5)]))
            assert [s.id for s in led] == ["7", "7.5"]


def test_text_ids_are_stripped_in_both_formats():
    # CSV strips every cell; a JSON id is stripped the same way, so blank
    # ids are refused and padded ones read alike in both formats
    for fmt, where in FORMATS:
        text = render(fmt, [GOOD, ALSO_GOOD], [(1, "id", " ")])
        led, errors = parse_ledger_lenient(text)
        assert [s.id for s in led] == ["good"], fmt
        spelled = " " if fmt.startswith("json") else ""
        assert [str(e) for e in errors] == [
            f"{where(1)}, column id: could not parse '{spelled}'"
        ], fmt
        led = parse_ledger(render(fmt, [GOOD, ALSO_GOOD], [(0, "id", " S1 ")]))
        assert [s.id for s in led] == ["S1", "also-good"], fmt


def test_parse_rejects_duplicate_ids():
    text = HEADER + "\na,20,1,2,3,1,1,1\na,20,1,2,3,1,1,1\n"
    with pytest.raises(LedgerError, match="duplicate study id 'a'"):
        parse_ledger(text)
    for fmt, where in FORMATS:
        text = render(fmt, [GOOD, ALSO_GOOD, GOOD])
        with pytest.raises(LedgerError, match="duplicate study id 'good'"):
            parse_ledger(text)
        led, errors = parse_ledger_lenient(text)
        assert [s.id for s in led] == ["good", "also-good"]
        assert [str(e) for e in errors] == [
            f"{where(2)}: duplicate study id 'good' (first at {where(0)})"
        ]


def test_parse_requires_header():
    with pytest.raises(LedgerError, match="header"):
        parse_ledger("1,20,1,2,3,1,1,1\n")
    with pytest.raises(LedgerError, match="no header"):
        parse_ledger("# only a comment\n")


def test_malformed_document_is_one_error():
    for text, message in (
        ("idx,n,x1\n1,2,3\n", "row 1: header must be"),
        ("# only a comment\n", "doc: no header row found"),
        ("[1, 2]", "doc: a JSON ledger must be an object with a 'studies' list"),
        ('{"studies": 5}', "doc: a JSON ledger must be an object"),
        ('{"studies": [', "doc: invalid JSON"),
    ):
        led, errors = parse_ledger_lenient(text, source="doc")
        assert len(led) == 0 and led.source == "doc"
        assert len(errors) == 1 and message in str(errors[0]), text
        with pytest.raises(LedgerError, match=re.escape(message)):
            parse_ledger(text, source="doc")


def test_comments_and_blank_lines_are_skipped():
    text = "# a comment\n\n" + HEADER + "\n# row comment\na,20,1,2,3,1,1,1\n\n"
    assert len(parse_ledger(text)) == 1


def test_validate_examples():
    good = StudySummary("1", 20, (2.47, 3.04, 3.68), (1.21, 0.72, 0.68))
    assert validate(good) == []
    # construction validates: an invalid study raises, naming its id
    with pytest.raises(LedgerError) as exc:
        StudySummary("x", 0, (1, 2, 3), (1, 1, 1))
    assert str(exc.value) == "study 'x': n must be positive"
    assert exc.value.study_id == "x" and exc.value.row is None
    for n, means, sds, violation in (
        (20, (1, 2, 3), (1.0, -0.5, 1.0), "sds must be positive"),
        (20, (1, 2), (1, 1, 1), "means must have exactly three entries"),
        (float("nan"), (1, 2, 3), (1, 1, 1), "n must be finite"),
        (20, (1, float("inf"), 3), (1, 1, 1), "means must be finite"),
        (20, (1, 2, 3), (1, 1), "sds must have exactly three entries"),
    ):
        with pytest.raises(LedgerError, match=re.escape(violation)):
            StudySummary("x", n, means, sds)


def test_any_positive_n_is_valid_and_zero_is_not():
    for n in (1, 0.5):
        assert validate(StudySummary("x", n, (1, 2, 3), (1, 1, 1))) == []
    with pytest.raises(LedgerError, match="^study 'x': n must be positive$"):
        StudySummary("x", 0, (1, 2, 3), (1, 1, 1))


def test_replace_and_make_validate_like_the_constructor():
    assert GOOD._replace(n=30).n == 30.0
    assert StudySummary._make(("m", 20, [1, 2, 3], [1, 1, 1])).means == (1.0, 2.0, 3.0)
    for make in (
        lambda: StudySummary("good", -1.0, (1, 2, 3), (1, 1, 1)),
        lambda: GOOD._replace(n=-1.0),
        lambda: StudySummary._make(("good", -1.0, (1, 2, 3), (1, 1, 1))),
    ):
        with pytest.raises(LedgerError, match="study 'good': n must be positive"):
            make()


def test_ledger_length_and_iteration():
    led = StudyLedger([GOOD, ALSO_GOOD], source="s")
    assert len(led) == 2 and list(led) == [GOOD, ALSO_GOOD] and led.studies == (GOOD, ALSO_GOOD)
    assert len(StudyLedger(())) == 0 and list(StudyLedger(())) == []
    assert StudyLedger(()).source == "<unknown>"


def test_warnings_flag_noninteger_and_tiny_n():
    s = StudySummary("w", 23.5, (1, 2, 3), (1, 1, 1))
    assert any("not an integer" in w for w in study_warnings(s))
    s = StudySummary("w", 3, (1, 2, 3), (1, 1, 1))
    assert any("< 5" in w for w in study_warnings(s))
    s = StudySummary("w", 20, (1, 2, 3), (1, 1, 1))
    assert study_warnings(s) == []


def test_the_small_n_note_starts_below_five():
    assert study_warnings(StudySummary("w", 5, (1, 2, 3), (1, 1, 1))) == []
    notes = study_warnings(StudySummary("w", 4.9, (1, 2, 3), (1, 1, 1)))
    assert "n = 4.9 < 5: normal approximation is unreliable" in notes


def test_serialize_parse_round_trip(suspect, reference):
    for led in (suspect, reference):
        again = parse_ledger(serialize_ledger(led), source=led.source)
        assert len(again) == len(led)
        for a, b in zip(led, again):
            assert a.id == b.id
            # 12 significant digits survive the text round trip
            assert a.n == pytest.approx(b.n, rel=1e-11)
            for x, y in zip(a.means + a.sds, b.means + b.sds):
                assert x == pytest.approx(y, rel=1e-11)


def test_round_trip_is_exact_for_table_style_decimals(suspect):
    again = parse_ledger(serialize_ledger(suspect))
    assert [s.means for s in again] == [s.means for s in suspect]
    assert [s.sds for s in again] == [s.sds for s in suspect]


def test_bundled_fixture_sizes(suspect, reference):
    assert len(suspect) == 12
    assert len(reference) == 21


def test_json_mapping_round_trip(suspect, reference):
    doc = json.dumps(ledger_to_mapping(reference))
    again = parse_ledger(doc)
    assert len(again) == 21
    assert again.studies[0].id == "Hagtvedt-l"
    assert again.studies[0].n == 23.5
    # the fixtures are parsed from the bundled CSV files, and the JSON form
    # carries every float exactly: both formats give the same studies
    for led in (suspect, reference):
        assert parse_ledger(json.dumps(ledger_to_mapping(led))).studies == led.studies


def test_json_accepts_rational_n_strings():
    doc = json.dumps(
        {"studies": [{"id": "q", "n": "141/6", "means": [1, 2, 3], "sds": [1, 1, 1]}]}
    )
    assert parse_ledger(doc).studies[0].n == 23.5


def test_json_honours_its_source():
    doc = ledger_to_mapping(StudyLedger((GOOD,), source="committee table 2"))
    assert parse_ledger(json.dumps(doc), source="file.json").source == "committee table 2"
    del doc["source"]
    assert parse_ledger(json.dumps(doc), source="file.json").source == "file.json"


def test_load_ledger_reads_a_file_as_parse_ledger_reads_its_text(tmp_path):
    studies = (GOOD, ALSO_GOOD)
    for fmt in ("csv", "json"):
        path = tmp_path / f"ledger.{fmt}"
        path.write_text(render(fmt, studies), encoding="utf-8")
        loaded = load_ledger(path)
        parsed = parse_ledger(render(fmt, studies), source=str(path))
        assert (loaded.studies, loaded.source) == (parsed.studies, parsed.source)
        assert loaded.studies == studies
        path.write_text(render(fmt, studies, [(1, "n", "-1")]), encoding="utf-8")
        with pytest.raises(LedgerError, match="n must be positive") as exc:
            load_ledger(path)
        assert exc.value.row == (3 if fmt == "csv" else None), fmt


def test_lenient_parse_keeps_valid_rows():
    text = (
        HEADER
        + "\ngood,20,1,2,3,1,1,1\nbad,20,1,2,3,1,0,1\nalso-good,15,1,2,3,2,2,2\n"
    )
    led, errors = parse_ledger_lenient(text)
    assert [s.id for s in led] == ["good", "also-good"]
    assert len(errors) == 1
    assert errors[0].study_id == "bad"
    assert errors[0].row == 3
    bad = StudySummary("bad", 20, (1, 2, 3), (1, 1, 1))
    for fmt, _ in FORMATS:
        text = render(fmt, [GOOD, bad, ALSO_GOOD], edits=[(1, "s2", 0)])
        led, errors = parse_ledger_lenient(text)
        assert [s.id for s in led] == ["good", "also-good"], fmt
        assert [str(e) for e in errors] == ["study 'bad': sds must be positive"]
        assert errors[0].study_id == "bad"


def test_serialize_rejects_comma_ids():
    led = StudyLedger(studies=(StudySummary("a,b", 20, (1, 2, 3), (1, 1, 1)),))
    with pytest.raises(LedgerError, match="cannot be serialized"):
        serialize_ledger(led)
