"""Fixtures shared by the state-vector and oracle tests.

pytest puts src/ on sys.path (pyproject's pythonpath); it goes on
PYTHONPATH too, so the tests' subprocesses import the same package.
"""

import os
from pathlib import Path

import pytest

from bvlab import statevector

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs and no BVLAB_THREADS, so walks split on any host."""
    monkeypatch.setattr(statevector, "_usable_cpus", lambda: 2)
    monkeypatch.delenv("BVLAB_THREADS", raising=False)
