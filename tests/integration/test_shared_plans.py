"""Integration: SharedSlickDeque over heterogeneous ACQ sets."""

from __future__ import annotations

import pytest

from repro.core.multiquery import SharedSlickDeque
from repro.errors import InvalidOperatorError
from repro.operators.registry import get_operator
from repro.windows.query import Query
from tests import oracle
from tests.conftest import int_stream

QUERY_SETS = [
    [Query(6, 2), Query(8, 4)],               # paper Example 1
    [Query(3, 3), Query(4, 4)],               # non-uniform lookback
    [Query(7, 3), Query(5, 2), Query(10, 6)], # three-way fragments
    [Query(5, 1), Query(3, 1)],               # paper Examples 2-3
    [Query(1, 1)],                            # degenerate
    [Query(12, 5), Query(12, 3)],             # shared range, two slides
]


@pytest.mark.parametrize("operator_name", ["sum", "max", "range"])
@pytest.mark.parametrize("technique", ["panes", "pairs"])
@pytest.mark.parametrize("queries", QUERY_SETS,
                         ids=[str(i) for i in range(len(QUERY_SETS))])
def test_shared_execution_matches_brute_force(
    operator_name, technique, queries
):
    stream = int_stream(240, seed=23)
    engine = SharedSlickDeque(
        queries, get_operator(operator_name), technique
    )
    got = [(p, q, a) for p, q, a in engine.run(stream)]
    assert got == oracle.count_windows(
        get_operator(operator_name), queries, stream
    )


def test_rejects_operator_without_a_slickdeque_path():
    # Range (a non-invertible composition) runs per component; an
    # operator neither invertible, selection-type nor composed cannot.
    with pytest.raises(InvalidOperatorError):
        SharedSlickDeque([Query(4, 2)], get_operator("bit_and"))


def test_w_size_matches_plan():
    engine = SharedSlickDeque(
        [Query(6, 2), Query(8, 4)], get_operator("sum")
    )
    assert engine.w_size == 4  # four 2-tuple partials cover range 8


def test_feed_returns_only_due_answers():
    engine = SharedSlickDeque([Query(4, 2)], get_operator("sum"))
    assert engine.feed(1) == []          # mid-partial
    produced = engine.feed(2)            # partial closes, query due
    assert len(produced) == 1
    position, query, answer = produced[0]
    assert (position, answer) == (2, 3)
    assert query.range_size == 4


def test_long_run_stays_consistent():
    """Many cycles through the composite slide, both engines."""
    stream = int_stream(1200, seed=29)
    for operator_name in ("sum", "max"):
        queries = [Query(9, 3), Query(15, 5)]
        engine = SharedSlickDeque(
            queries, get_operator(operator_name), "pairs"
        )
        got = list(engine.run(stream))
        assert got == oracle.count_windows(
            get_operator(operator_name), queries, stream
        )
