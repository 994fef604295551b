"""Ingestion and validation of published study summaries.

A "study" here is one three-cell ANOVA result as printed in a publication:
the per-cell sample size ``n``, the three cell means and the three cell
standard deviations.  A ledger document, in a small CSV dialect (hand-typed
tables) or a JSON mapping (tooling), gives rows of one shape
(:func:`document_rows`), and :func:`parse_rows` makes them the studies of a
:class:`StudyLedger`.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

#: Mandatory CSV header, fixed order.
COLUMNS = ("id", "n", "x1", "x2", "x3", "s1", "s2", "s3")


class LedgerError(ValueError):
    """Malformed or invalid ledger input; its text names the row, entry,
    column or study id at fault."""


class StudySummary(namedtuple("StudySummary", "id n means sds")):
    """Summary statistics of one three-cell study, valid by construction.

    ``n`` is a positive real, not an integer: published tables often report
    a total sample size over unequal cells, so the per-cell size is a
    quotient like 141/6 = 23.5.  ``means`` and ``sds`` are tuples of floats.

    Construction runs :func:`validate` and raises one :class:`LedgerError`
    (``study '<id>': <violation>; ...``) when the numbers break an
    invariant; ``_make`` and ``_replace`` construct through it too.  Every
    study that exists is therefore valid, and no evaluation checks it again.
    """

    __slots__ = ()

    def __new__(cls, id, n, means, sds):
        return _study(cls, id, n, tuple(map(float, means)), tuple(map(float, sds)))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


def _study(cls, id, n, means, sds):
    # a validated study of float tuples as given: parse_rows makes floats already
    self = tuple.__new__(cls, (id, n, means, sds))
    problems = validate(self)
    if problems:
        raise LedgerError(f"study '{id}': " + "; ".join(problems))
    return self


class StudyLedger:
    """An ordered, read-only collection of studies; :func:`parse_rows`
    refuses a repeated id, so the ids of a parsed ledger are unique."""

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
    _, n, means, sds = study
    if len(means) != 3:
        violations.append("means must have exactly three entries")
    if len(sds) != 3:
        violations.append("sds must have exactly three entries")
    if not (isinstance(n, (int, float)) and math.isfinite(n)):
        violations.append("n must be finite")
    elif n <= 0:
        violations.append("n must be positive")
    if not all(map(math.isfinite, means)):
        violations.append("means must be finite")
    if not all(map(math.isfinite, sds)):
        violations.append("sds must be finite")
    elif sds and min(sds) <= 0:  # min() of no sds would raise
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


def _number(cell, quotient: bool = False):
    """A cell as a float, or None when it holds no number.

    A cell is text or a JSON number; bools and other JSON values hold no
    number.  Text like ``141/6`` is a quotient of integers, correctly
    rounded as int / int is, where *quotient* is set (the ``n`` column).
    """
    kind = type(cell)
    if kind is float:  # a JSON ledger's number
        return cell
    try:
        if kind is int:
            return float(cell)
        if kind is str:
            if quotient and "/" in cell:
                num, _, den = cell.partition("/")
                return int(num) / int(den)
            return float(cell)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    return None


#: the characters that no line of a report or a diagnostic may hold: the C0
#: controls but the tab, which breaks no line, the C1 controls and the line
#: and paragraph separators, each mapped to its escape as ``repr`` spells
#: it (``\n``, ``\x00``, ``\u2028``)
_CONTROLS = {c: repr(chr(c))[1:-1]
             for c in (*range(0x09), *range(0x0A, 0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def _id(cell):
    """A cell as a study id: text stripped like a CSV cell, if that leaves
    any, holds none of the ``_CONTROLS`` and UTF-8 can write it, or a JSON
    number as ``str`` spells its value (``1e2`` is ``100.0``, ``1.50`` is
    ``1.5``; CSV keeps the text); else None.  A JSON string can spell a lone
    surrogate (``"\\ud800"``), which no report can write."""
    if type(cell) in (str, int, float):  # not a bool, null, list or object
        text = str(cell).strip()
        if not text.isprintable() and not _CONTROLS.keys().isdisjoint(map(ord, text)):
            return None
        try:
            text.encode()
        except UnicodeEncodeError:
            return None
        return text or None
    return None


def _spelled(cell) -> str:
    # a cell as its input spells it, on one line: text with its _CONTROLS
    # escaped, any other JSON value as JSON
    return cell.translate(_CONTROLS) if type(cell) is str else json.dumps(cell)


def _csv_rows(text: str, source: str):
    """The data lines under the mandatory header, as ``(row N, cells)``, or
    as the error of a line without ``len(COLUMNS)`` cells."""
    rows = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_seen:
            name = f"row {lineno}"
            rows.append((name, cells) if len(cells) == len(COLUMNS) else LedgerError(
                f"{name}: expected {len(COLUMNS)} columns, got {len(cells)}"))
        elif tuple(c.lower() for c in cells) == COLUMNS:
            header_seen = True
        else:
            raise LedgerError(f"row {lineno}: header must be '{','.join(COLUMNS)}', got '{line}'")
    if not header_seen:
        raise LedgerError(f"{source}: no header row found; expected '{','.join(COLUMNS)}'")
    return rows


def _json_row(k, entry):
    """The k-th ``studies`` entry as ``(studies[k], cells)``, or as its error."""
    name = f"studies[{k}]"
    if not isinstance(entry, dict):
        return LedgerError(f"{name}: expected an object with keys id, n, means, sds")
    means, sds = entry.get("means"), entry.get("sds")
    if "id" in entry and "n" in entry and isinstance(means, list) and isinstance(sds, list):
        if len(means) == len(sds) == 3:
            return name, [entry["id"], entry["n"], *means, *sds]
    problems = [f"missing key '{key}'" for key in ("id", "n", "means", "sds") if key not in entry]
    problems.append("means and sds must be lists of three numbers")
    return LedgerError(f"{name}: {problems[0]}")


def document_rows(text: str, source: str = "<string>"):
    """The rows of a ledger document, as ``(source, rows)`` for
    :func:`parse_rows`: each row is ``(name, cells)``, or the
    :class:`LedgerError` of a line, entry or document that cannot be read,
    so a malformed document (no or bad CSV header, invalid JSON, no
    ``studies`` list) is one row.  One leading UTF-8 byte-order mark is
    dropped.  CSV: UTF-8, comma-delimited, mandatory header
    ``id,n,x1,x2,x3,s1,s2,s3``, ``#`` comment lines; a data line is ``row N``.
    JSON (sniffed by a leading ``{`` or ``[``): ``{"studies": [{"id", "n",
    "means", "sds"}, ...]}`` with an optional top-level ``source`` string,
    which replaces *source*; the k-th entry is ``studies[k]``.
    """
    text = text.removeprefix("\ufeff")
    try:
        if text.lstrip()[:1] not in ("{", "["):
            return source, _csv_rows(text, source)
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
            raise LedgerError(f"{source}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("studies"), list):
            raise LedgerError(f"{source}: a JSON ledger must be an object with a 'studies' list")
        if not isinstance(doc.get("source", source), str):
            raise LedgerError(f"{source}: a JSON ledger's 'source' must be a string")
        return doc.get("source", source), [_json_row(k, e) for k, e in enumerate(doc["studies"])]
    except LedgerError as exc:
        return source, [exc]


def parse_rows(rows):
    """``(studies, errors)`` of :func:`document_rows`' rows: rows that are
    errors or fail to parse, rows whose :class:`StudySummary` construction
    fails and repeated ids are errors, each led by its row's name.  Cells
    are numbers or their text; ``n`` also accepts quotients like ``141/6``.
    """
    studies: list[StudySummary] = []
    errors: list[LedgerError] = []
    seen: dict[str, str] = {}  # each id's row name
    for row in rows:
        if isinstance(row, LedgerError):
            errors.append(row)
            continue
        name, cells = row
        study_id, n = _id(cells[0]), _number(cells[1], True)
        x1, x2, x3, s1, s2, s3 = numbers = tuple(cells[2:])
        if not type(x1) is type(x2) is type(x3) is type(s1) is type(s2) is type(s3) is float:
            numbers = tuple(map(_number, numbers))  # _number takes a float as it is
        if study_id is None or n is None or None in numbers:
            errors += [
                LedgerError(f"{name}, column {column}: could not parse '{_spelled(cell)}'")
                for column, cell, value in zip(COLUMNS, cells, (study_id, n, *numbers))
                if value is None
            ]
            continue
        try:
            study = _study(StudySummary, study_id, n, numbers[:3], numbers[3:])
        except LedgerError as exc:
            errors.append(LedgerError(f"{name}: {exc}"))
            continue
        first = seen.setdefault(study_id, name)
        if first != name:
            errors.append(LedgerError(f"{name}: duplicate study id '{study_id}' (first at {first})"))
            continue
        studies.append(study)
    return studies, errors


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
    from pathlib import Path  # here, so that loading the command line never loads it

    p = Path(path)
    return parse_ledger(p.read_text(encoding="utf-8"), source=str(p))
