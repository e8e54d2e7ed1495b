import functools

import pytest

from stirlingsym import identities


@pytest.fixture(scope="session")
def _check_reports():
    return {}


@pytest.fixture
def battery(monkeypatch, _check_reports):
    """Serve each registry check's report from the session's first run of it.

    ``verify --identity all`` then runs the 18-check battery once per
    session, however many tests print it as text or as JSON.
    """
    def memoized(name, check):
        @functools.wraps(check)
        def run(**sizes):
            key = (name, tuple(sorted(sizes.items())))
            if key not in _check_reports:
                _check_reports[key] = check(**sizes)
            return _check_reports[key]
        return run

    checks = {name: memoized(name, check) for name, check in identities.registry().items()}
    monkeypatch.setattr(identities, "registry", lambda: checks)
