import threading
import tracemalloc

import pytest


def _traced_peak(fn):
    """Call ``fn()`` under ``tracemalloc``; return its result and the peak traced bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """``traced_peak(fn) -> (fn(), peak bytes)``, the peak of Python-traced allocations."""
    return _traced_peak


@pytest.fixture
def spawned_threads(monkeypatch):
    """A list that gets each ``threading.Thread`` made during the test."""
    spawned = []
    base = threading.Thread

    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return spawned
