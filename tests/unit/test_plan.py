"""Unit tests for shared execution plans."""

from __future__ import annotations

import pytest

from repro.errors import PlanError
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query


def test_example1_shared_plan():
    """Paper Example 1: slides 2 and 4, ranges 6 and 8.

    Composite slide 4, partials every 2 tuples; q6/2 answers every
    edge with 3 partials of lookback, q8/4 every second edge with 4.
    """
    plan = build_shared_plan([Query(6, 2), Query(8, 4)], "pairs")
    assert plan.cycle_length == 4
    assert plan.partials_per_cycle == 2
    assert plan.edges == (2, 4)
    assert plan.w_size == 4

    step_at_2, step_at_4 = plan.steps
    assert [sq.query.range_size for sq in step_at_2.answers] == [6]
    assert [sq.lookback for sq in step_at_2.answers] == [3]
    assert [sq.query.range_size for sq in step_at_4.answers] == [8, 6]
    assert [sq.lookback for sq in step_at_4.answers] == [4, 3]


def test_answers_ordered_descending_by_range():
    plan = build_shared_plan(
        [Query(4, 2), Query(8, 2), Query(6, 2)], "pairs"
    )
    for step in plan.steps:
        ranges = [sq.query.range_size for sq in step.answers]
        assert ranges == sorted(ranges, reverse=True)


def test_scheduled_queries_carry_their_slot_in_plan_queries():
    # The invertible final stage keeps per-query state in lists indexed
    # by this slot; a wrong slot would silently mix two queries' sums.
    plan = build_shared_plan(
        [Query(4, 2), Query(8, 2), Query(6, 3), Query(6, 2)], "pairs"
    )
    seen = set()
    for step in plan.steps:
        for sq in step.answers:
            assert plan.queries[sq.slot] == sq.query
            seen.add(sq.slot)
    assert seen == set(range(len(plan.queries)))


def test_lookback_monotone_in_range_within_step():
    plan = build_shared_plan(
        [Query(7, 3), Query(5, 2), Query(10, 6)], "pairs"
    )
    for step in plan.steps:
        lookbacks = [sq.lookback for sq in step.answers]
        assert lookbacks == sorted(lookbacks, reverse=True)


def test_uniform_lookback_with_equal_slides():
    plan = build_shared_plan(
        [Query(5, 1), Query(3, 1), Query(8, 1)], "pairs"
    )
    assert plan.uniform_lookback
    assert plan.w_size == 8


def test_non_uniform_lookback_detected():
    # q3/3 windows contain 1 or 2 partials depending on phase once
    # q4/4's edges cut the cycle (worked example in plan.py docstring).
    plan = build_shared_plan([Query(3, 3), Query(4, 4)], "pairs")
    assert not plan.uniform_lookback


def test_duplicate_queries_collapse():
    plan = build_shared_plan([Query(4, 2), Query(4, 2)], "pairs")
    assert len(plan.queries) == 1


def test_cutty_rejected_for_shared_plans():
    with pytest.raises(PlanError, match="cutty"):
        build_shared_plan([Query(4, 2)], "cutty")


def test_unknown_technique_rejected():
    with pytest.raises(PlanError):
        build_shared_plan([Query(4, 2)], "nonsense")


def test_empty_query_set_rejected():
    with pytest.raises(PlanError):
        build_shared_plan([], "pairs")


def test_describe_mentions_queries():
    plan = build_shared_plan([Query(6, 2)], "pairs")
    text = plan.describe()
    assert "q6/2" in text
    assert "wSize" in text
