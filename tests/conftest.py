import os
import tracemalloc

import pytest

from ssgauss import covgrid
from ssgauss.models import make_model

# canonical parameter choices used across the suite; alpha < 1.5 throughout
CATALOG_CASES = [
    ("fbm", {"H": 0.35}),
    ("subfbm", {"H": 0.35}),
    ("bifbm", {"H": 0.6, "K": 0.5}),
    ("swanson", {}),
    ("dw-z1", {"alpha": 0.5}),
    ("dw-z2", {"alpha": 0.5}),
]


def peak_bytes(call):
    """(call(), the peak of traced memory while it ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class CPUs:
    """usable(k) lets this process run on k CPUs; pools lists the worker
    count of each pool covgrid starts, in order."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.pools = pools = []

        class Recorder(covgrid.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(covgrid, "ThreadPoolExecutor", Recorder)

    def usable(self, count):
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def cpus(monkeypatch):
    return CPUs(monkeypatch)


@pytest.fixture(scope="session")
def catalog_models():
    return [make_model(name, **kw) for name, kw in CATALOG_CASES]


@pytest.fixture(scope="session")
def fbm_half():
    return make_model("fbm", H=0.5)


@pytest.fixture(scope="session")
def swanson():
    return make_model("swanson")
