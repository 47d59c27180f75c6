"""Deterministic cost gate: Python-level calls per ``StreamEngine.feed``.

Wall-clock per-tuple cost on a shared box swings by more than the
wrapper is worth; the number of Python function calls one ``feed``
makes does not swing at all.  On the pipeline benchmark's per-tuple
shape (two slide-1 queries, one ``CollectSink``, windows full) the
engine made 19 calls per tuple for ``max`` and 24 for ``sum`` before
the lean path; the ceilings below hold the wrapper to what is left:
``feed`` → ``SharedSlickDeque.feed`` → ``lift`` / ⊕ → ``on_partial`` →
``dominates`` / ``lower`` (or ring push, ⊕, ⊖, ``lower``) →
``emit_many``.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

import repro
from repro.operators.registry import get_operator
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

WARMUP = 300
MEASURED = 2000
#: Only frames of library code count: a ``gc`` callback some other
#: test's plugin registered must not leak into the total.
LIBRARY = os.path.dirname(repro.__file__) + os.sep


def calls_per_feed(operator_name: str) -> float:
    """Mean library ``call`` profile events per ``feed``, steady state."""
    rng = random.Random(18)
    values = [rng.uniform(0.0, 100.0) for _ in range(WARMUP + MEASURED)]
    engine = StreamEngine(
        [Query(256, 1), Query(64, 1)],
        get_operator(operator_name),
        sinks=[CollectSink()],
    )
    feed = engine.feed
    for value in values[:WARMUP]:  # both windows full: evictions steady
        feed(value)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for value in values[WARMUP:]:
            feed(value)
    finally:
        sys.setprofile(previous)
    return calls / MEASURED


@pytest.mark.parametrize(
    "operator_name, ceiling", [("max", 12.0), ("sum", 16.0)]
)
def test_feed_makes_few_python_calls(operator_name, ceiling):
    assert calls_per_feed(operator_name) <= ceiling
