import pytest

from evidential import datasets


@pytest.fixture(scope="session")
def suspect():
    return datasets.suspect_ledger()


@pytest.fixture(scope="session")
def reference():
    return datasets.reference_ledger()


@pytest.fixture(scope="session")
def by_id(suspect, reference):
    table = {s.id: s for s in suspect}
    table.update({s.id: s for s in reference})
    return table
