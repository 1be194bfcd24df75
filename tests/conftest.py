"""Fixtures shared by the test modules."""

import pytest

from finstoch.core import Dist


@pytest.fixture
def built_dists(monkeypatch):
    """Every Dist built while the test runs, in order of construction."""
    built = []
    real = Dist.__post_init__

    def recorded(self):
        real(self)
        built.append(self)

    monkeypatch.setattr(Dist, "__post_init__", recorded)
    return built
