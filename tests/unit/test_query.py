"""Unit tests for ACQ specifications."""

from __future__ import annotations

import pytest

from repro.errors import InvalidQueryError
from repro.operators.registry import get_operator
from repro.service import AggregationService
from repro.stream.engine import StreamEngine
from repro.windows.query import Query, max_range
from repro.windows.timebased import TimeQuery, TimeWindowEngine


def test_default_name():
    assert Query(6, 2).name == "q6/2"


def test_custom_name():
    assert Query(6, 2, name="revenue").name == "revenue"


def test_validation():
    with pytest.raises(InvalidQueryError):
        Query(0, 1)
    with pytest.raises(InvalidQueryError):
        Query(1, 0)
    with pytest.raises(InvalidQueryError):
        Query(-5, 2)


def test_fragments_pairs_rule():
    # f2 = range % slide, f1 = slide - f2 (paper Section 2.1).
    assert Query(8, 3).fragments == (1, 2)
    assert Query(6, 2).fragments == (2, 0)
    assert Query(5, 5).fragments == (5, 0)


def test_reports_at_multiples_of_slide():
    q = Query(6, 3)
    assert not q.reports_at(1)
    assert not q.reports_at(2)
    assert q.reports_at(3)
    assert q.reports_at(6)


def test_window_at_steady_state():
    q = Query(4, 2)
    assert list(q.window_at(10)) == [7, 8, 9, 10]


def test_window_at_warmup_clips_to_stream_start():
    q = Query(10, 1)
    assert list(q.window_at(3)) == [1, 2, 3]


def test_ordering_and_hashing():
    q_small, q_big = Query(3, 1), Query(5, 1)
    assert q_small < q_big
    assert len({Query(3, 1), Query(3, 1), q_big}) == 2


def test_max_range():
    assert max_range([Query(3, 1), Query(9, 2), Query(5, 5)]) == 9


def test_max_range_empty():
    with pytest.raises(InvalidQueryError):
        max_range([])


def _service(queries, mode):
    return AggregationService(
        queries, get_operator("sum"), mode=mode, transport="inline"
    )


@pytest.mark.parametrize(
    "build, right",
    [
        (lambda: StreamEngine([TimeQuery(2.0, 1.0)], get_operator("sum")),
         "TimeWindowEngine"),
        (lambda: _service([TimeQuery(2.0, 1.0)], "global"), "mode='time'"),
        (lambda: _service([TimeQuery(2.0, 1.0)], "per_key"), "mode='time'"),
        (lambda: _service([Query(2, 1)], "time"), "StreamEngine"),
        (lambda: TimeWindowEngine([Query(2, 1)], get_operator("sum")),
         "StreamEngine"),
    ],
    ids=["engine", "global", "per_key", "time", "time-engine"],
)
def test_a_query_of_the_wrong_kind_is_refused_by_name(build, right):
    with pytest.raises(InvalidQueryError, match=right):
        build()
