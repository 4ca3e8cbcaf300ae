import pytest

from corz import census
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
def fresh_zero_verdicts():
    """Each test starts from an empty zero-verdict store.  The store outlives
    a test, as the _z_all cache does, so without this a test that expects MN
    to run at some n would pass or fail with the n the previous test left."""
    census._verdicts.reset(-1)
