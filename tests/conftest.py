"""Shared fixtures and helpers for the test suite.

Also provides a minimal fallback for ``@pytest.mark.timeout`` when the
``pytest-timeout`` plugin is not installed (CI installs it; bare local
environments may not): a SIGALRM-based per-test alarm turns a wedged
multiprocess test into a failure in seconds instead of a hung run.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import random
import signal

import pytest

from repro.operators.registry import available_operators, get_operator

_HAS_TIMEOUT_PLUGIN = (
    importlib.util.find_spec("pytest_timeout") is not None
)


def pytest_configure(config):
    """Register the ``timeout`` marker when the real plugin is absent."""
    if not _HAS_TIMEOUT_PLUGIN:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test time limit "
            "(SIGALRM fallback; install pytest-timeout for the real one)",
        )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout`` via SIGALRM when unplugged."""
    marker = item.get_closest_marker("timeout")
    if (
        marker is None
        or _HAS_TIMEOUT_PLUGIN
        or not hasattr(signal, "SIGALRM")
    ):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 60.0

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout mark"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Start the process transport's workers with this method.

    ``fork`` is what the supervisor picks wherever it exists; ``spawn``
    is what platforms without it use, and makes every worker attach to
    its rings by segment name.
    """
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param!r} start method here")
    context = multiprocessing.get_context(request.param)
    monkeypatch.setattr(
        "repro.service.supervisor._context", lambda: context
    )
    return request.param


@pytest.fixture
def rng():
    """A seeded Random instance; tests stay deterministic."""
    return random.Random(0xC0FFEE)


@pytest.fixture(params=["sum", "max", "min", "mean", "count"])
def operator_name(request):
    """A representative spread of operator kinds."""
    return request.param


@pytest.fixture
def operator(operator_name):
    return get_operator(operator_name)


def int_stream(length: int, seed: int = 1, low: int = -50, high: int = 50):
    """Deterministic integer stream (exact arithmetic, no float fuzz)."""
    rng = random.Random(seed)
    return [rng.randint(low, high) for _ in range(length)]


def all_operator_names():
    """Every registered operator name (registry round-trip helper)."""
    return available_operators()
