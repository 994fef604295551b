"""Evidential value of three-cell ANOVA-regression summaries.

Screens published studies (per-cell n, three cell means, three cell
standard deviations) for results that are too regular to be credible: the
evidential value V is the likelihood ratio of the observed mean contrast
under a correlated-errors fabrication model versus the independence model,
and multiplies prior odds into posterior odds.

The top level carries the names of the README's library example; the rest
lives in the submodules ``ledger``, ``geometry``, ``engine``, ``simulate``,
``cli`` and ``datasets``.
"""

from .engine import Mode, combine, evidential_value
from .ledger import LedgerError, load_ledger

__version__ = "0.1.0"

__all__ = [
    "LedgerError",
    "Mode",
    "combine",
    "datasets",
    "evidential_value",
    "load_ledger",
]
