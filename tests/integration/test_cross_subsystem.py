"""Integration: subsystems composed in ways the units never exercise.

Each test threads three or more subsystems together — the kind of
composition a downstream adopter would actually write.
"""

from __future__ import annotations

import pytest

from repro.datasets.debs12 import debs12_events
from repro.operators.registry import get_operator
from repro.stream.checkpoint import restore, snapshot
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink, LatestSink
from repro.stream.source import from_events, reordered
from repro.windows.compatibility import AcqSpec, CompatibleSharedEngine
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery, TimeWindowEngine
from tests import oracle
from tests.conftest import int_stream


def test_reordered_network_feed_into_shared_engine():
    """Out-of-order network tuples → reorder → shared plan → sinks."""
    values = int_stream(120, seed=91)
    # Late-by-up-to-2 network delivery.
    positioned = []
    for i in range(0, 120, 3):
        chunk = [(i + 3, values[i + 2]), (i + 1, values[i]),
                 (i + 2, values[i + 1])]
        positioned.extend(chunk)
    collect, latest = CollectSink(), LatestSink()
    engine = StreamEngine(
        [Query(6, 3), Query(12, 6)],
        get_operator("max"),
        sinks=[collect, latest],
    )
    engine.run(reordered(positioned, slack=3))
    assert engine.tuples_consumed == 120
    # The collected answers are the in-order stream's.
    assert collect.answers == oracle.count_windows(
        get_operator("max"), engine.queries, values
    )
    # The dashboard sink holds the final answer per query.
    for query, (position, answer) in latest.latest.items():
        assert position == 120
        assert answer == max(values[120 - query.range_size:])


def test_checkpointed_compatible_engine_resumes():
    """Operator-sharing engine + checkpoint mid-stream."""
    values = int_stream(160, seed=92)
    specs = [
        AcqSpec(Query(8, 4), "mean"),
        AcqSpec(Query(8, 4), "sum"),
        AcqSpec(Query(16, 8), "variance"),
    ]
    continuous = CompatibleSharedEngine(specs)
    expected = list(continuous.run(values))

    subject = CompatibleSharedEngine(specs)
    head = list(subject.run(values[:90]))
    subject = restore(snapshot(subject))
    tail = list(subject.run(values[90:]))
    got = head + tail
    assert [(p, s.label) for p, s, _ in got] == [
        (p, s.label) for p, s, _ in expected
    ]
    for (_, _, a), (_, _, b) in zip(got, expected):
        assert a == pytest.approx(b)


def test_time_engine_from_sensor_events_with_checkpoint():
    """DEBS12 events → time windows → checkpoint → resume."""
    events = list(debs12_events(800, seed=9, include_states=False))
    stream = [(e.timestamp, e.energy[2]) for e in events]
    queries = [TimeQuery(2.0, 1.0, name="peak2s")]

    continuous = TimeWindowEngine(queries, get_operator("max"))
    expected = [
        (round(t, 6), a) for t, _, a in continuous.run(stream)
    ]

    subject = TimeWindowEngine(queries, get_operator("max"))
    head = [
        (round(t, 6), a) for t, _, a in
        (answer for ts, v in stream[:500]
         for answer in subject.feed(ts, v))
    ]
    subject = restore(snapshot(subject))
    tail = [
        (round(t, 6), a) for t, _, a in
        (answer for ts, v in stream[500:]
         for answer in subject.feed(ts, v))
    ]
    tail += [(round(t, 6), a) for t, _, a in subject.finish()]
    assert head + tail == expected


def test_event_source_extraction_matches_manual():
    events = list(debs12_events(50, seed=10, include_states=False))
    extracted = list(from_events(events, reading=1))
    assert extracted == [e.energy[1] for e in events]
