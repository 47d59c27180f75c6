"""Property-based tests for the extension subsystems."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.registry import get_operator
from repro.stream.punctuation import (
    PunctuatedCuttyPipeline,
    Punctuation,
    punctuate,
)
from repro.stream.source import reordered
from repro.stream.watermark import TimeSliceClock
from repro.windows.compatibility import AcqSpec, CompatibleSharedEngine
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery
from tests import oracle

values = st.lists(
    st.integers(min_value=-500, max_value=500), min_size=1, max_size=120
)


@given(
    stream=values,
    range_size=st.integers(min_value=1, max_value=20),
    slide=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_punctuated_cutty_matches_brute_force(stream, range_size, slide):
    query = Query(range_size, slide)
    op = get_operator("max")
    pipeline = PunctuatedCuttyPipeline(query, op)
    got = pipeline.run(punctuate(stream, [query]))
    expected = [
        (position, answer)
        for position, _, answer in oracle.count_windows(op, [query], stream)
    ]
    assert got == expected


@given(stream=values, queries=st.lists(
    st.builds(
        Query,
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1,
    max_size=3,
))
@settings(max_examples=60, deadline=None)
def test_punctuation_positions_are_window_starts(stream, queries):
    position = 0
    for element in punctuate(stream, queries):
        if isinstance(element, Punctuation):
            assert element.position == position
            assert any(
                (element.position + q.range_size) % q.slide == 0
                for q in queries
            )
        else:
            position += 1


@given(
    items=st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                   max_size=60, unique=True),
    extra=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=80, deadline=None)
def test_reorder_buffer_sorts_within_slack(items, extra):
    """Any arrival order comes out sorted when the slack covers the
    furthest a position can trail the newest one seen before it."""
    newest, displacement = items[0], 0
    for position in items:
        newest = max(newest, position)
        displacement = max(displacement, newest - position)
    released = list(
        reordered(
            ((position, position) for position in items),
            slack=displacement + extra,
        )
    )
    assert released == sorted(items)


@given(
    timestamps=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    slice_seconds=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=80, deadline=None)
def test_time_slicer_partitions_the_stream(timestamps, slice_seconds):
    """``TimeSliceClock.cut`` partitions a sorted column into runs."""
    ordered = sorted(timestamps)
    clock = TimeSliceClock(slice_seconds)
    runs = []
    start = 0
    while start < len(ordered):
        index = clock.slice_of(ordered[start])
        stop = clock.cut(ordered, index, start + 1, len(ordered))
        runs.append((index, ordered[start:stop]))
        start = stop
    # Slice indices strictly ascend; concatenated runs are the column.
    indices = [index for index, _ in runs]
    assert indices == sorted(set(indices))
    assert [t for _, run in runs for t in run] == ordered
    for index, run in runs:
        for timestamp in run:
            assert (
                clock.start_time(index)
                <= timestamp
                < clock.end_time(index)
            )


@given(
    stream=values,
    window=st.integers(min_value=2, max_value=24),
    slide=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_compatible_engine_consistent_across_operators(
    stream, window, slide
):
    """Shared components answer identically to direct evaluation."""
    query = Query(window, slide)
    specs = [
        AcqSpec(query, "sum"),
        AcqSpec(query, "count"),
        AcqSpec(query, "mean"),
    ]
    engine = CompatibleSharedEngine(specs)
    answers = {}
    for position, spec, answer in engine.run(stream):
        answers.setdefault(position, {})[spec.operator_name] = answer
    for position, by_op in answers.items():
        window_values = stream[max(0, position - window):position]
        assert by_op["sum"] == sum(window_values)
        assert by_op["count"] == len(window_values)
        assert by_op["mean"] == sum(window_values) / len(window_values)


@given(
    range_seconds=st.sampled_from([1.0, 2.0, 4.0, 6.0]),
    slide_seconds=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=20, deadline=None)
def test_time_query_count_reduction_round_trips(
    range_seconds, slide_seconds
):
    query = TimeQuery(range_seconds, slide_seconds)
    count = query.to_count_query(slice_seconds=1.0)
    assert count.range_size == int(range_seconds)
    assert count.slide == int(slide_seconds)
