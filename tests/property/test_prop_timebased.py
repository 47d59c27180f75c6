"""Property-based tests: the time-window engine vs brute force."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.registry import get_operator
from repro.windows.timebased import TimeQuery, TimeWindowEngine
from tests import oracle

#: Timestamps on a 0.1s grid keep windows and arrivals commensurable
#: without floating-point hazards.
arrival_gaps = st.lists(
    st.integers(min_value=0, max_value=40),  # tenths of a second
    min_size=1,
    max_size=60,
)
durations = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])


@given(
    gaps=arrival_gaps,
    range_seconds=durations,
    slide_seconds=st.sampled_from([0.5, 1.0]),
    operator_name=st.sampled_from(["sum", "max", "count"]),
)
@settings(max_examples=60, deadline=None)
def test_time_engine_matches_brute_force(
    gaps, range_seconds, slide_seconds, operator_name
):
    op = get_operator(operator_name)
    # Build a non-decreasing timestamped stream on the 0.1s grid,
    # strictly inside slice boundaries to avoid float-boundary
    # ambiguity in the brute-force comparison.
    stream = []
    tick = 0
    for index, gap in enumerate(gaps):
        tick += gap
        stream.append((tick / 10 + 0.011, float(index % 13)))

    query = TimeQuery(range_seconds, slide_seconds)
    engine = TimeWindowEngine([query], op)
    got = {
        round(end, 6): answer
        for end, _, answer in engine.run(stream)
    }

    horizon = max(end for end in got) if got else 0.0
    end = slide_seconds
    while end <= horizon + 1e-9:
        key = round(end, 6)
        window = [
            v for t, v in stream if end - range_seconds <= t < end
        ]
        assert key in got
        expected = oracle.fold(op, window)
        if expected != expected:  # NaN (mean of empty window)
            assert got[key] != got[key]
        else:
            assert got[key] == expected
        end += slide_seconds


@given(gaps=arrival_gaps)
@settings(max_examples=40, deadline=None)
def test_every_slide_answered_up_to_the_last_tuple(gaps):
    stream = []
    tick = 0
    for index, gap in enumerate(gaps):
        tick += gap
        stream.append((tick / 10 + 0.011, index))
    engine = TimeWindowEngine(
        [TimeQuery(2.0, 1.0)], get_operator("count")
    )
    answers = list(engine.run(stream))
    ends = [round(end, 6) for end, _, _ in answers]
    # Answer timestamps are consecutive slide boundaries with no gaps
    # (empty slices still answer) and no duplicates.
    assert ends == sorted(set(ends))
    for first, second in zip(ends, ends[1:]):
        assert round(second - first, 6) == 1.0
