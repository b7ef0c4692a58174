"""Fixtures shared by the state-vector and oracle tests."""

import pytest

from bvlab import statevector


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs and no BVLAB_THREADS, so walks split on any host."""
    monkeypatch.setattr(statevector, "_usable_cpus", lambda: 2)
    monkeypatch.delenv("BVLAB_THREADS", raising=False)
