import json
import re

import pytest

from evidential import datasets
from evidential.ledger import (
    COLUMNS,
    LedgerError,
    StudySummary,
    document_rows,
    load_ledger,
    parse_ledger,
    parse_ledger_lenient,
    parse_rows,
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
    if fmt == "csv":
        lines = serialize_ledger(studies).splitlines()
        for k, column, cell in edits:
            cells = lines[k + 1].split(",")
            cells[COLUMNS.index(column)] = str(cell)
            lines[k + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    doc = ledger_to_mapping(studies)
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
    s = led[0]
    assert s.id == "1"
    assert s.n == 20.0
    assert s.means == (2.47, 3.04, 3.68)
    assert s.sds == (1.21, 0.72, 0.68)


def test_parse_rational_n():
    text = HEADER + "\nHagtvedt-l, 141/6, 4.39,3.97,3.84, 0.76,1.26,1.14\n"
    led = parse_ledger(text)
    assert led[0].n == 23.5
    for fmt, where in FORMATS:
        led = parse_ledger(render(fmt, [GOOD], [(0, "n", "141/6")]))
        assert led[0].n == 23.5, fmt
        # quotients are read in the n column only
        with pytest.raises(LedgerError, match=re.escape(f"{where(0)}, column x1")):
            parse_ledger(render(fmt, [GOOD], [(0, "x1", "141/6")]))
        # a quotient is the correctly rounded float of its exact value
        led = parse_ledger(render(fmt, [GOOD], [(0, "n", "100/3")]))
        assert led[0].n == 100 / 3, fmt
        # a negative one is a number, refused by the row rules; a zero
        # denominator, or a value beyond the float range, is no number
        _, errors = parse_ledger_lenient(render(fmt, [GOOD], [(0, "n", "1/-6")]))
        assert [str(e) for e in errors] == [f"{where(0)}: study 'good': n must be positive"], fmt
        for cell in ("1/0", "1" * 400 + "/3"):
            with pytest.raises(LedgerError, match=re.escape(f"{where(0)}, column n: could not")):
                parse_ledger(render(fmt, [GOOD], [(0, "n", cell)]))


def test_parse_rejects_zero_sd():
    text = HEADER + "\nbad,20,1,2,3,1.0,0,1.0\n"
    with pytest.raises(LedgerError, match="^row 2: study 'bad': sds must be positive$"):
        parse_ledger(text)


def test_parse_errors_name_row_and_column():
    text = HEADER + "\nok,20,1,2,3,1,1,1\nshort,20,1,2\n"
    with pytest.raises(LedgerError, match="row 3"):
        parse_ledger(text)
    text = HEADER + "\nok,20,1,2,x,1,1,1\n"
    with pytest.raises(LedgerError, match="row 2, column x3"):
        parse_ledger(text)
    for fmt, where in FORMATS:
        text = render(fmt, [GOOD, ALSO_GOOD], [(1, "x3", "x")])
        with pytest.raises(LedgerError, match=re.escape(f"{where(1)}, column x3: could not")):
            parse_ledger(text)
        # every unparseable cell of a row is reported
        _, errors = parse_ledger_lenient(render(fmt, [GOOD], [(0, "n", "?"), (0, "s2", "")]))
        assert [str(e) for e in errors] == [
            f"{where(0)}, column n: could not parse '?'",
            f"{where(0)}, column s2: could not parse ''",
        ], fmt


def test_json_refuses_what_is_not_a_number_or_a_row():
    # bools and nulls are not numbers, and are quoted as JSON spells them
    for column, cell in (("n", True), ("s3", False), ("x2", None)):
        text = render("json", [GOOD, ALSO_GOOD], [(1, column, cell)])
        message = f"studies[1], column {column}: could not parse '{json.dumps(cell)}'"
        with pytest.raises(LedgerError, match=re.escape(message)):
            parse_ledger(text)
    # a string is not a list of means, and every key is required
    doc = ledger_to_mapping((GOOD, ALSO_GOOD))
    doc["studies"][1]["means"] = "123"
    with pytest.raises(LedgerError, match=re.escape("studies[1]: means and sds must be lists")):
        parse_ledger(json.dumps(doc))
    for key in ("id", "n", "means", "sds"):
        doc = ledger_to_mapping((GOOD, ALSO_GOOD))
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
        # a number is the id str() spells it
        if fmt.startswith("json"):
            led = parse_ledger(render(fmt, [GOOD, ALSO_GOOD], [(0, "id", 7), (1, "id", 7.5)]))
            assert [s.id for s in led] == ["7", "7.5"]


def test_a_json_number_id_is_str_of_its_value_and_a_csv_id_keeps_its_text():
    # JSON parses a number before it is read as an id, so the id is how str()
    # spells the int or float: 1e2 is '100.0', 1.50 is '1.5'; a CSV cell is text
    entry = '{"id": %s, "n": 20, "means": [1, 2, 3], "sds": [1, 1, 1]}'
    doc = '{"studies": [%s]}' % ", ".join(entry % i for i in ("1e2", "1.50", "7", "-0.0"))
    assert [s.id for s in parse_ledger(doc)] == ["100.0", "1.5", "7", "-0.0"]
    csv = HEADER + "\n1e2,20,1,2,3,1,1,1\n1.50,20,1,2,3,1,1,1\n100.0,20,1,2,3,1,1,1\n"
    assert [s.id for s in parse_ledger(csv)] == ["1e2", "1.50", "100.0"]
    # so JSON's 1e2 and 100.0 are one id, and CSV's 1e2 and 100.0 are two
    _, errors = parse_ledger_lenient(doc.replace("1.50", "100.0"))
    assert [str(e) for e in errors] == [
        "studies[1]: duplicate study id '100.0' (first at studies[0])"]


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


def test_repeats_are_found_among_ids_as_they_are_read():
    # a JSON id is read as text, so 5 and "5" repeat, and stripped, so " a"
    # and "a " do; an id that does not parse is an error of its row, never a repeat
    def errors(*entries):
        return [str(e) for e in parse_ledger_lenient(json.dumps({"studies": entries}))[1]]

    def entry(**keys):
        return {"n": 20, "means": [1, 2, 3], "sds": [1, 1, 1], **keys}

    assert errors(entry(id=5), entry(id="5")) == [
        "studies[1]: duplicate study id '5' (first at studies[0])"]
    assert errors(entry(id=" a"), entry(id="a ")) == [
        "studies[1]: duplicate study id 'a' (first at studies[0])"]
    assert errors(*(entry(id=i) for i in (5, "6", 7.5, "7"))) == []
    unparsed = errors(*(entry(id=i) for i in ("", " ", None, True, [5], {"a": 1}, "x")))
    assert len(unparsed) == 6 and all(", column id: could not parse" in e for e in unparsed)
    others = (5, [5], "5", entry(), entry(), entry(id=5))  # no object, or no id
    assert not any("duplicate" in e for e in errors(*others))
    assert errors(*others, entry(id="5"))[-1] == (
        "studies[6]: duplicate study id '5' (first at studies[5])")


def test_an_id_no_report_can_write_is_refused_in_both_formats():
    # JSON spells a lone surrogate as "\ud800"; no UTF-8 report can write
    # it, so it is an id that does not parse, named like any other
    for fmt, where in FORMATS:
        for cell in ("\ud800", "a\udfff b"):
            text = render(fmt, [GOOD, ALSO_GOOD], [(1, "id", cell)])
            led, errors = parse_ledger_lenient(text)
            assert [s.id for s in led] == ["good"], (fmt, cell)
            assert [str(e) for e in errors] == [
                f"{where(1)}, column id: could not parse '{cell}'"
            ], (fmt, cell)


#: the controls (but the tab) and separators that a CSV line can hold (str.splitlines
#: ends a line at the others), those only JSON can spell, and their escapes
CSV_CONTROLS = {"\x00": "\\x00", "\x08": "\\x08", "\x1f": "\\x1f", "\x7f": "\\x7f", "\x9f": "\\x9f"}
JSON_CONTROLS = {"\n": "\\n", "\r": "\\r", "\x0b": "\\x0b", "\x85": "\\x85",
                 "\u2028": "\\u2028", "\u2029": "\\u2029"}


def test_an_id_that_breaks_a_line_is_refused_in_both_formats():
    # an id with a control or a line separator would break a line of the
    # table, or forge one: it is an id that does not parse, and its error
    # spells those characters escaped, so that it stays one line
    for fmt, where in FORMATS:
        controls = {**CSV_CONTROLS, **({} if fmt.startswith("csv") else JSON_CONTROLS)}
        for char, escaped in controls.items():
            text = render(fmt, [GOOD, ALSO_GOOD], [(1, "id", f"a{char}b")])
            led, errors = parse_ledger_lenient(text)
            assert [s.id for s in led] == ["good"], (fmt, char)
            assert [str(e) for e in errors] == [
                f"{where(1)}, column id: could not parse 'a{escaped}b'"
            ], (fmt, char)
        # any column's text is spelled the same way
        errors = parse_ledger_lenient(render(fmt, [GOOD], [(0, "n", "2\x000")]))[1]
        assert [str(e) for e in errors] == [f"{where(0)}, column n: could not parse '2\\x000'"]
        # a tab breaks no line, and a no-break space is no control, though
        # str.isprintable says False to both
        for kept in ("a\tb", "a\xa0b"):
            led = parse_ledger(render(fmt, [GOOD, ALSO_GOOD], [(1, "id", kept)]))
            assert [s.id for s in led] == ["good", kept], fmt


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
        # a report writes the source where a name goes; NaN is no strict JSON
        ('{"source": NaN, "studies": []}', "doc: a JSON ledger's 'source' must be a string"),
        ('{"source": {"x": [1, 2]}, "studies": []}', "doc: a JSON ledger's 'source' must be"),
        ('{"source": null, "studies": []}', "doc: a JSON ledger's 'source' must be"),
    ):
        led, errors = parse_ledger_lenient(text, source="doc")
        assert led == () and document_rows(text, "doc")[0] == "doc"
        assert len(errors) == 1 and message in str(errors[0]), text
        with pytest.raises(LedgerError, match=re.escape(message)):
            parse_ledger(text, source="doc")


def test_document_rows_give_every_row_one_shape():
    # a row is (name, cells); a line, entry or document that cannot be read
    # is its own LedgerError, named as its row
    source, rows = document_rows(HEADER + "\na, 20,1,2,3,1,1,1\nb,20,1\n", "doc")
    assert (source, rows[0]) == ("doc", ("row 2", ["a", "20", "1", "2", "3", "1", "1", "1"]))
    assert type(rows[1]) is LedgerError and str(rows[1]) == "row 3: expected 8 columns, got 3"
    entry = {"id": "a", "n": 20, "means": [1, 2, 3.5], "sds": [1, 1, 1]}
    no_n = {key: cell for key, cell in entry.items() if key != "n"}
    doc = {"source": "paper", "studies": [entry, [entry], no_n, {**entry, "means": [1, 2]}]}
    source, rows = document_rows(json.dumps(doc), "doc")
    assert (source, rows[0]) == ("paper", ("studies[0]", ["a", 20, 1, 2, 3.5, 1, 1, 1]))
    assert all(type(row) is LedgerError for row in rows[1:])
    assert [str(row) for row in rows[1:]] == [
        "studies[1]: expected an object with keys id, n, means, sds",
        "studies[2]: missing key 'n'",
        "studies[3]: means and sds must be lists of three numbers",
    ]
    source, rows = document_rows('{"studies": [', "doc")
    assert source == "doc" and len(rows) == 1 and type(rows[0]) is LedgerError
    assert str(rows[0]).startswith("doc: invalid JSON: ")


def test_one_ledger_as_csv_and_as_json_gives_the_same_studies_and_errors():
    # a bad cell, an invalid study, an unreadable id and a repeated id: the
    # same studies and error texts in both formats, but for the row names
    bad = StudySummary("bad", 20, (1, 2, 3), (1, 1, 1))
    studies = [GOOD, ALSO_GOOD, bad, StudySummary("x", 5, (1, 2, 3), (1, 1, 1)), GOOD, bad]
    edits = [(1, "x3", "x"), (2, "s2", "0"), (3, "id", "\x00"), (5, "n", "141/6")]
    parsed = {}
    for fmt, where in FORMATS:
        found, errors = parse_rows(document_rows(render(fmt, studies, edits))[1])
        texts = [str(e) for e in errors]
        for k in range(len(studies)):
            texts = [text.replace(where(k), f"<{k}>") for text in texts]
        parsed[fmt] = found, texts
    assert parsed["csv"][1] == [
        "<1>, column x3: could not parse 'x'",
        "<2>: study 'bad': sds must be positive",
        "<3>, column id: could not parse '\\x00'",
        "<4>: duplicate study id 'good' (first at <0>)",
    ]
    assert parsed["csv"][0] == [GOOD, bad._replace(n=23.5)]
    assert all(result == parsed["csv"] for result in parsed.values())


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
    for n, means, sds, violation in (
        (20, (1, 2, 3), (1.0, -0.5, 1.0), "sds must be positive"),
        (20, (1, 2), (1, 1, 1), "means must have exactly three entries"),
        (float("nan"), (1, 2, 3), (1, 1, 1), "n must be finite"),
        (20, (1, float("inf"), 3), (1, 1, 1), "means must be finite"),
        (20, (1, 2, 3), (1, 1), "sds must have exactly three entries"),
        # no entries to check for finiteness or sign: the count is the error
        (20, (), (1, 1, 1), "means must have exactly three entries"),
        (20, (1, 2, 3), (), "sds must have exactly three entries"),
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


def test_a_parsed_ledger_is_a_tuple_of_studies(tmp_path):
    # the same studies as CSV and as JSON compare equal by value
    path = tmp_path / "ledger.json"
    path.write_text(render("json", (GOOD, ALSO_GOOD)), encoding="utf-8")
    parsed = [parse_ledger(render(fmt, (GOOD, ALSO_GOOD))) for fmt, _ in FORMATS]
    parsed.append(load_ledger(path))
    assert parsed == [(GOOD, ALSO_GOOD)] * 5
    assert parse_ledger(render("csv", ())) == parse_ledger(render("json", ())) == ()
    bundled = [datasets.suspect_ledger(), datasets.reference_ledger()]
    assert [len(led) for led in bundled] == [12, 21]
    for led in parsed + bundled:
        assert type(led) is tuple and all(type(s) is StudySummary for s in led)


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
        again = parse_ledger(serialize_ledger(led))
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
    assert again[0].id == "Hagtvedt-l"
    assert again[0].n == 23.5
    # the fixtures are parsed from the bundled CSV files, and the JSON form
    # carries every float exactly: both formats give the same studies
    for led in (suspect, reference):
        assert parse_ledger(json.dumps(ledger_to_mapping(led))) == led


def test_json_accepts_rational_n_strings():
    doc = json.dumps(
        {"studies": [{"id": "q", "n": "141/6", "means": [1, 2, 3], "sds": [1, 1, 1]}]}
    )
    assert parse_ledger(doc)[0].n == 23.5


def test_json_honours_its_source():
    doc = ledger_to_mapping((GOOD,), source="committee table 2")
    assert document_rows(json.dumps(doc), source="file.json")[0] == "committee table 2"
    del doc["source"]
    assert document_rows(json.dumps(doc), source="file.json")[0] == "file.json"


def test_load_ledger_reads_a_file_as_parse_ledger_reads_its_text(tmp_path):
    studies = (GOOD, ALSO_GOOD)
    for fmt, where in FORMATS[:2]:
        path = tmp_path / f"ledger.{fmt}"
        path.write_text(render(fmt, studies), encoding="utf-8")
        assert load_ledger(path) == parse_ledger(render(fmt, studies)) == studies
        path.write_text(render(fmt, studies, [(1, "n", "-1")]), encoding="utf-8")
        message = f"{where(1)}: study 'also-good': n must be positive"
        with pytest.raises(LedgerError, match=f"^{re.escape(message)}$"):
            load_ledger(path)


def test_load_ledger_names_its_path_on_one_line(tmp_path):
    # a line break in the path is escaped as a cell's is, and a str path
    # reads as a PathLike one
    path = tmp_path / "bad\nproduct V: 1.json"
    path.write_text('{"studies": [', encoding="utf-8")
    for given in (path, str(path)):
        with pytest.raises(LedgerError) as caught:
            load_ledger(given)
        assert str(caught.value).startswith(str(path).replace("\n", "\\n") + ": invalid JSON: ")
        assert "\n" not in str(caught.value)
    with pytest.raises(OSError):
        load_ledger(tmp_path / "missing.csv")


def test_lenient_parse_keeps_valid_rows():
    text = (
        HEADER
        + "\ngood,20,1,2,3,1,1,1\nbad,20,1,2,3,1,0,1\nalso-good,15,1,2,3,2,2,2\n"
    )
    led, errors = parse_ledger_lenient(text)
    assert [s.id for s in led] == ["good", "also-good"]
    assert [str(e) for e in errors] == ["row 3: study 'bad': sds must be positive"]
    bad = StudySummary("bad", 20, (1, 2, 3), (1, 1, 1))
    for fmt, where in FORMATS:
        text = render(fmt, [GOOD, bad, ALSO_GOOD], edits=[(1, "s2", 0)])
        led, errors = parse_ledger_lenient(text)
        assert [s.id for s in led] == ["good", "also-good"], fmt
        assert [str(e) for e in errors] == [f"{where(1)}: study 'bad': sds must be positive"]


def test_serialize_rejects_comma_ids():
    with pytest.raises(LedgerError, match="cannot be serialized"):
        serialize_ledger([StudySummary("a,b", 20, (1, 2, 3), (1, 1, 1))])
