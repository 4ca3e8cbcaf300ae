import pytest

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

