"""Deterministic cost gate: Python-level calls per ``StreamEngine.feed``.

Wall-clock per-tuple cost on a shared box swings by more than the
wrapper is worth; the number of Python function calls one ``feed``
makes does not swing at all.  On the pipeline benchmark's per-tuple
shape (two slide-1 queries, one ``CollectSink``, windows full) the
engine made 19 calls per tuple for ``max`` and 24 for ``sum`` before
the lean path, then 11 and 13.  The ceilings below are today's counts:
besides the algorithm's own operations, a tuple pays ``feed``,
``SharedSlickDeque.feed``, ``on_partial`` and ``emit_many`` — for
``max`` two ``dominates`` on average (6 in all), for ``sum`` the ⊕
with the identity, two ⊕ and two ⊖ (9).  An inherited identity
``lift`` / ``lower`` is never called, and a selection operator's ⊕
with the identity is skipped (it returns its other operand).
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


#: Library calls per tuple at slide 1: the gates for ``feed`` and,
#: no higher than ``feed``'s own count, for ``feed_many``.  Test ids
#: name the operator only, so tightening a ceiling renames no test.
SLIDE_ONE_CEILINGS = {"max": 6.0, "sum": 9.0}


@pytest.mark.parametrize("operator_name", list(SLIDE_ONE_CEILINGS))
def test_feed_makes_few_python_calls(operator_name):
    assert calls_per_feed(operator_name) <= SLIDE_ONE_CEILINGS[operator_name]


# ---------------------------------------------------------------------
# ``feed_many``: library calls per completed partial, not per tuple
# ---------------------------------------------------------------------


def calls_per_feed_many(operator_name, queries, batch, calls_made=8):
    """Mean library ``call`` events per ``feed_many`` of ``batch`` values.

    Integer stream (the pipeline benchmark's), windows full before the
    count starts.
    """
    rng = random.Random(22)
    span = max(query.range_size for query in queries)
    warm = -(-2 * span // batch)  # enough calls to fill every window
    batches = [
        [rng.randint(-1000, 1000) for _ in range(batch)]
        for _ in range(warm + calls_made)
    ]
    engine = StreamEngine(
        queries, get_operator(operator_name), sinks=[CollectSink()]
    )
    feed_many = engine.feed_many
    for values in batches[:warm]:
        feed_many(values)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for values in batches[warm:]:
            feed_many(values)
    finally:
        sys.setprofile(previous)
    return calls / calls_made


def test_bulk_sum_pays_per_partial_not_per_slice_walk():
    """The benchmark's plan: (1024, 32) + (512, 64), 1024-tuple calls.

    32 partials close per call.  Per partial the final stage owes two
    ⊕ (one per query), two ⊖ (one per retired partial per query) and
    1.5 ``lower`` (answers); the partial stage owes none — its fold is
    one segmented kernel call per *batch*.  The parent made 23.75
    calls per partial (760 per call).
    """
    queries = [Query(1024, 32), Query(512, 64)]
    per_call = calls_per_feed_many("sum", queries, 1024)
    assert per_call <= 8 * 32 + 16


def test_bulk_call_count_does_not_grow_with_tuples_per_slice():
    """Four times the tuples in every slice, the same partials per
    call, the same windows in partials: not one more library call."""
    narrow = calls_per_feed_many(
        "sum", [Query(1024, 32), Query(512, 64)], 1024
    )
    wide = calls_per_feed_many(
        "sum", [Query(4096, 128), Query(2048, 256)], 4096
    )
    assert wide == narrow


@pytest.mark.parametrize("operator_name", list(SLIDE_ONE_CEILINGS))
def test_slide_one_feed_many_makes_no_more_calls_than_feed(operator_name):
    """Slide 1 — an answer per tuple per query — is where ``feed_many``
    used to lose to ``feed`` (once 24.0 calls per tuple for sum, 14.0
    for max, against ``feed``'s 16.0 / 11.0; today about 4 against 9 /
    6).  It is held to ``feed``'s own ceilings."""
    per_call = calls_per_feed_many(
        operator_name, [Query(256, 1), Query(64, 1)], 500, calls_made=4
    )
    assert per_call / 500 <= SLIDE_ONE_CEILINGS[operator_name]
    assert per_call / 500 <= calls_per_feed(operator_name)


# ---------------------------------------------------------------------
# ``EventTimeEngine.feed_many``: library calls per closed slice and per
# call — never per record, never per displaced record
# ---------------------------------------------------------------------

#: Slices each measured call closes: the stream runs at ``batch / 4``
#: records per second and the windows' slice is one second.
EVENT_SLICES = 4


def calls_per_event_feed_many(batch, displaced_share, calls_made=8):
    """Mean library ``call`` events per ``EventTimeEngine.feed_many``.

    The pipeline benchmark's event-time shape — ``TimeQuery(2, 1)`` +
    ``TimeQuery(5, 2)`` over ``sum``, lateness 0.25 s — with
    ``displaced_share`` of each call's records arriving three places
    late (behind newer records, inside the bound, never across a call
    boundary: every call releases and closes the same slices whatever
    the share).  Windows are full before the count starts.
    """
    from repro.stream.engine import EventTimeEngine
    from repro.windows.timebased import TimeQuery

    rng = random.Random(23)
    rate = batch // EVENT_SLICES
    warm = 3
    batches = []
    for call in range(warm + calls_made):
        rows = [
            ((call * batch + index + 0.5) / rate, rng.randint(-1000, 1000))
            for index in range(batch)
        ]
        for index in rng.sample(
            range(batch - 8), int(displaced_share * batch)
        ):
            rows.insert(index + 3, rows.pop(index))
        batches.append(rows)
    engine = EventTimeEngine(
        [TimeQuery(2, 1), TimeQuery(5, 2)],
        get_operator("sum"),
        lateness=0.25,
    )
    feed_many = engine.feed_many
    for rows in batches[:warm]:
        feed_many(rows)
    calls = answers = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for rows in batches[warm:]:
            answers += len(feed_many(rows))
    finally:
        sys.setprofile(previous)
    # 4 slices closed per call: 4 answers of (2, 1), 2 of (5, 2).
    assert answers == 6 * calls_made and engine.late_records == 0
    return calls / calls_made


@pytest.mark.parametrize("displaced_share", [0.0, 0.1, 0.3])
def test_event_feed_many_pays_per_slice_and_per_call(displaced_share):
    """Per closed slice the call owes its run cut (``slice_of``,
    ``cut``, ``end_time``), one ``lift``, and per query one ⊕, the ⊖s
    of what left the window and the answers' ``lower`` — 19 at most;
    everything else (the reorder buffer's proof, sort and release, the
    column split, one segmented fold, one ``close_slices``) is a
    constant per call (104 in all).  The
    parent made 117, and at least two more (``push_into``,
    ``_release_into``) per displaced record: 214 per 512-record call
    at 10 %, 381 at 30 %."""
    per_call = calls_per_event_feed_many(512, displaced_share)
    assert per_call <= 19 * EVENT_SLICES + 36


def test_event_feed_many_call_count_ignores_disorder_and_batch_size():
    """Same slices closed per call, so not one more library call: not
    for three times the displaced records, not for four times the
    records."""
    base = calls_per_event_feed_many(512, 0.0)
    assert calls_per_event_feed_many(512, 0.1) == base
    assert calls_per_event_feed_many(512, 0.3) == base
    assert calls_per_event_feed_many(2048, 0.1) == base
