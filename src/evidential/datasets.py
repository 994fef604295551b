"""Bundled example data.

Two real corpora of published three-cell summaries: the 12 studies of a
publication that was under integrity review, and 21 comparable studies
from the same literature serving as a reference population.
"""

from __future__ import annotations

from importlib import resources

from .ledger import StudySummary, parse_ledger


def _load(name: str) -> tuple[StudySummary, ...]:
    text = resources.files("evidential").joinpath("data", name).read_text("utf-8")
    return parse_ledger(text, source=f"bundled:{name}")


def suspect_ledger() -> tuple[StudySummary, ...]:
    """The 12 studies of the publication under review."""
    return _load("suspect_studies.csv")


def reference_ledger() -> tuple[StudySummary, ...]:
    """The 21 comparable studies from the surrounding literature."""
    return _load("reference_studies.csv")
