"""Property-based tests: shared-plan invariants over random ACQ sets."""

from __future__ import annotations

import math
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiquery import SharedSlickDeque
from repro.operators.registry import get_operator
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query
from repro.windows.slicing import edges_for, partial_lengths
from tests import oracle

query_sets = st.lists(
    st.builds(
        Query,
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=4,
)

techniques = st.sampled_from(["panes", "pairs"])


@given(queries=query_sets, technique=techniques)
@settings(max_examples=120, deadline=None)
def test_partial_lengths_tile_the_cycle(queries, technique):
    cycle, edges = edges_for(technique, queries)
    lengths = partial_lengths(edges, cycle)
    assert sum(lengths) == cycle
    assert all(length >= 1 for length in lengths)
    assert edges == sorted(set(edges))
    assert 1 <= edges[0] and edges[-1] <= cycle


@given(queries=query_sets, technique=techniques)
@settings(max_examples=120, deadline=None)
def test_cycle_is_lcm_of_slides(queries, technique):
    cycle, _ = edges_for(technique, queries)
    assert cycle == reduce(math.lcm, (q.slide for q in queries), 1)


@given(queries=query_sets, technique=techniques)
@settings(max_examples=120, deadline=None)
def test_plan_schedules_every_query_exactly_per_slide(queries, technique):
    plan = build_shared_plan(queries, technique)
    for query in plan.queries:
        scheduled_offsets = [
            step.end_offset
            for step in plan.steps
            for sq in step.answers
            if sq.query == query
        ]
        expected = [
            offset
            for offset in range(1, plan.cycle_length + 1)
            if offset % query.slide == 0
        ]
        assert scheduled_offsets == expected


@given(queries=query_sets, technique=techniques)
@settings(max_examples=120, deadline=None)
def test_lookbacks_cover_exactly_the_range(queries, technique):
    """The partials a lookback spans sum to exactly the query range
    (steady state), for every scheduled answer."""
    plan = build_shared_plan(queries, technique)
    lengths = {
        step.end_offset: step.length for step in plan.steps
    }
    ordered_offsets = [step.end_offset for step in plan.steps]
    for index, step in enumerate(plan.steps):
        for sq in step.answers:
            covered = 0
            cursor = index
            for _ in range(sq.lookback):
                covered += lengths[ordered_offsets[cursor]]
                cursor = (cursor - 1) % len(ordered_offsets)
            assert covered == sq.query.range_size


@given(queries=query_sets, technique=techniques)
@settings(max_examples=60, deadline=None)
def test_shared_execution_matches_brute_force(queries, technique):
    stream = [((i * 37) % 101) - 50 for i in range(120)]
    op = get_operator("max")
    engine = SharedSlickDeque(queries, op, technique)
    got = [(p, q, a) for p, q, a in engine.run(stream)]
    assert got == oracle.count_windows(op, queries, stream)
