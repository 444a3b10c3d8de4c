"""Shared fixtures: every test gets its own Hom-table cache directory."""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_cache(monkeypatch, tmp_path):
    """Point the default HomTableCache at the test's tmp_path, so no test
    reads or writes the user's cache."""
    monkeypatch.setenv("CHAINFACT_CACHE_DIR", str(tmp_path))
