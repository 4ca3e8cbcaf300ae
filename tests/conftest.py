import pytest

from corz import characters
from corz.suites import verify

_reports = {}


@pytest.fixture(scope="session")
def suite_report():
    """Memoized access to verify() reports so the acceptance tests and the
    unit tests share one run of each heavy suite."""

    def get(name: str):
        if name not in _reports:
            _reports[name] = verify(name)
        return _reports[name]

    return get


@pytest.fixture(autouse=True)
def empty_process_stores():
    """Each test starts on an empty store of MN suffix levels, so a count of
    MN calls does not depend on the tests run before it, and on an empty
    store of the whole-table kernel's small rows."""
    characters._SUFFIX_LEVELS.clear()
    characters._SMALL_ROWS.clear()
