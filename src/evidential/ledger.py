"""Ingestion and validation of published study summaries.

A "study" here is one three-cell ANOVA result as printed in a publication:
the per-cell sample size ``n``, the three cell means and the three cell
standard deviations.  Collections of studies are kept in a
:class:`StudyLedger` and are read from a small CSV dialect (hand-typed
tables) or a JSON mapping (tooling).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

#: Mandatory CSV header, fixed order.
COLUMNS = ("id", "n", "x1", "x2", "x3", "s1", "s2", "s3")


class LedgerError(ValueError):
    """Malformed or invalid ledger input.

    Carries optional context: the 1-based input row, the column name and
    the offending study id.
    """

    def __init__(self, message, row=None, column=None, study_id=None):
        super().__init__(message)
        self.row = row
        self.column = column
        self.study_id = study_id


class StudySummary(namedtuple("StudySummary", "id n means sds")):
    """Summary statistics of one three-cell study, valid by construction.

    ``n`` is a positive real, not an integer: published tables often report
    a total sample size over unequal cells, so the per-cell size is a
    quotient like 141/6 = 23.5.  ``means`` and ``sds`` are tuples of floats.

    Construction runs :func:`validate` and raises one :class:`LedgerError`
    (``study '<id>': <violation>; ...``, with ``study_id`` set) when the
    numbers break an invariant; ``_make`` and ``_replace`` construct
    through it too.  Every study that exists is therefore valid, and no
    evaluation checks it again.
    """

    __slots__ = ()

    def __new__(cls, id, n, means, sds):
        self = super().__new__(cls, id, n, tuple(map(float, means)), tuple(map(float, sds)))
        problems = validate(self)
        if problems:
            raise LedgerError(f"study '{id}': " + "; ".join(problems), study_id=id)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


class StudyLedger:
    """An ordered, read-only collection of studies with unique ids."""

    __slots__ = ("studies", "source")

    def __init__(self, studies, source: str = "<unknown>"):
        object.__setattr__(self, "studies", tuple(studies))
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to StudyLedger.{name}")

    def __len__(self):
        return len(self.studies)

    def __iter__(self):
        return iter(self.studies)


def validate(study: StudySummary) -> list[str]:
    """Return every violated invariant of *study* (empty list when valid).

    :class:`StudySummary` calls it on each study it builds and raises the
    violations as one error, so that a row reports all its problems at
    once; a constructed study always passes.
    """
    violations = []
    if len(study.means) != 3:
        violations.append("means must have exactly three entries")
    if len(study.sds) != 3:
        violations.append("sds must have exactly three entries")
    if not (isinstance(study.n, (int, float)) and math.isfinite(study.n)):
        violations.append("n must be finite")
    elif study.n <= 0:
        violations.append("n must be positive")
    if not all(math.isfinite(x) for x in study.means):
        violations.append("means must be finite")
    if not all(math.isfinite(s) for s in study.sds):
        violations.append("sds must be finite")
    elif any(s <= 0 for s in study.sds):
        violations.append("sds must be positive")
    return violations


def study_warnings(study: StudySummary) -> list[str]:
    """Non-fatal data quirks worth surfacing next to the results."""
    notes = []
    if study.n != int(study.n):
        notes.append(f"n = {study.n:g} is not an integer (averaged unequal cells?)")
    if study.n < 5:
        notes.append(f"n = {study.n:g} < 5: normal approximation is unreliable")
    return notes


def _number(cell, quotient: bool):
    """A cell as a float, or None when it holds no number.

    A cell is text or a JSON number; bools and other JSON values hold no
    number.  Text like ``141/6`` is a quotient of integers, correctly
    rounded as int / int is, where *quotient* is set (the ``n`` column).
    """
    kind = type(cell)
    try:
        if kind is float or kind is int:
            return float(cell)
        if kind is str:
            if quotient and "/" in cell:
                num, _, den = cell.partition("/")
                return int(num) / int(den)
            return float(cell)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    return None


def _id(cell):
    """A cell as a study id: text stripped like a CSV cell, if that leaves
    any, or a JSON number's text; else None."""
    if type(cell) in (str, int, float):  # not a bool, null, list or object
        return str(cell).strip() or None
    return None


def _spelled(cell) -> str:
    # a cell as its input spells it: text as it is, any other JSON value as JSON
    return cell if type(cell) is str else json.dumps(cell)


def _csv_rows(text: str, source: str):
    """The data lines under the mandatory header, as ``(where, row, cells)``."""
    rows = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_seen:
            rows.append((f"row {lineno}", lineno, cells))
        elif tuple(c.lower() for c in cells) == COLUMNS:
            header_seen = True
        else:
            raise LedgerError(
                f"row {lineno}: header must be '{','.join(COLUMNS)}', got '{line}'",
                row=lineno,
            )
    if not header_seen:
        raise LedgerError(f"{source}: no header row found; expected '{','.join(COLUMNS)}'")
    return rows


def _json_cells(where: str, entry):
    """One ``studies`` entry as ``COLUMNS`` cells, or the error it makes."""
    if not isinstance(entry, dict):
        return LedgerError(f"{where}: expected an object with keys id, n, means, sds")
    for key in ("id", "n", "means", "sds"):
        if key not in entry:
            return LedgerError(f"{where}: missing key '{key}'")
    means, sds = entry["means"], entry["sds"]
    if not (isinstance(means, list) and isinstance(sds, list) and len(means) == len(sds) == 3):
        return LedgerError(f"{where}: means and sds must be lists of three numbers")
    return [entry["id"], entry["n"], *means, *sds]


def _json_rows(text: str, source: str):
    """The entries of the ``studies`` list as ``(where, None, cells)``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LedgerError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("studies"), list):
        raise LedgerError(f"{source}: a JSON ledger must be an object with a 'studies' list")
    rows = []
    for k, entry in enumerate(doc["studies"]):
        where = f"studies[{k}]"
        rows.append((where, None, _json_cells(where, entry)))
    return doc.get("source", source), rows


def document_rows(text: str, source: str = "<string>"):
    """The rows of a ledger document, as ``(source, rows)`` for
    :func:`parse_rows`.  One leading UTF-8 byte-order mark, as spreadsheet
    exports write, is dropped.  CSV: UTF-8, comma-delimited, mandatory header
    ``id,n,x1,x2,x3,s1,s2,s3``, comment lines start with ``#``; rows are
    named ``row N`` (1-based input line).  JSON (sniffed by a leading ``{``
    or ``[``): ``{"studies": [{"id", "n", "means", "sds"}, ...]}`` with an
    optional top-level ``source``, which replaces *source*; rows are named
    ``studies[k]``.  A malformed document (no or bad CSV header, invalid
    JSON, no ``studies`` list) is one row that is its error.
    """
    text = text.removeprefix("\ufeff")
    try:
        if text.lstrip()[:1] in ("{", "["):
            return _json_rows(text, source)
        return source, _csv_rows(text, source)
    except LedgerError as exc:
        return source, [(None, None, exc)]


def parse_rows(rows):
    """``(studies, errors)`` of :func:`document_rows`' rows: rows that fail
    to parse, rows whose :class:`StudySummary` construction fails (the error
    gets the row attached) and repeated ids are errors.  Cells are numbers
    or their text; ``n`` also accepts quotients like ``141/6``.
    """
    studies: list[StudySummary] = []
    errors: list[LedgerError] = []
    seen: dict[str, str] = {}
    for where, row, cells in rows:
        if isinstance(cells, LedgerError):
            errors.append(cells)
            continue
        if len(cells) != len(COLUMNS):
            errors.append(
                LedgerError(
                    f"{where}: expected {len(COLUMNS)} columns, got {len(cells)}", row=row
                )
            )
            continue
        values = [_id(cells[0])]
        values += [_number(cell, name == "n") for name, cell in zip(COLUMNS[1:], cells[1:])]
        study_id = values[0]
        if None in values:
            errors += [
                LedgerError(
                    f"{where}, column {name}: could not parse '{_spelled(cell)}'",
                    row=row,
                    column=name,
                    study_id=study_id,
                )
                for name, cell, value in zip(COLUMNS, cells, values)
                if value is None
            ]
            continue
        try:
            study = StudySummary(study_id, values[1], tuple(values[2:5]), tuple(values[5:]))
        except LedgerError as exc:
            exc.row = row
            errors.append(exc)
            continue
        if study_id in seen:
            errors.append(
                LedgerError(
                    f"{where}: duplicate study id '{study_id}' (first at {seen[study_id]})",
                    row=row,
                    study_id=study_id,
                )
            )
            continue
        seen[study_id] = where
        studies.append(study)
    return studies, errors


def may_split(rows) -> bool:
    """Whether runs of *rows* parse alone as in the whole: no id repeats."""
    ids = [_id(cells[0]) for *_, cells in rows if type(cells) is list]
    return len(set(ids)) == len(ids)


def parse_ledger_lenient(text: str, source: str = "<string>"):
    """``(ledger, errors)`` of a ledger document (CSV dialect or JSON
    mapping) read by :func:`document_rows` and :func:`parse_rows`: rows
    survive the errors of others, a malformed document is one error."""
    source, rows = document_rows(text, source)
    studies, errors = parse_rows(rows)
    return StudyLedger(studies, source), errors


def parse_ledger(text: str, source: str = "<string>") -> StudyLedger:
    """Like :func:`parse_ledger_lenient`, but raise its first error."""
    ledger, errors = parse_ledger_lenient(text, source)
    if errors:
        raise errors[0]
    return ledger


def load_ledger(path) -> StudyLedger:
    """Read and parse a ledger file (CSV or JSON, sniffed by content)."""
    p = Path(path)
    return parse_ledger(p.read_text(encoding="utf-8"), source=str(p))
