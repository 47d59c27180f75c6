"""Shared execution plans for multi-query processing (Section 2.3).

``buildSharedPlan`` in Algorithms 1 and 2 combines all compatible ACQs
into one plan: the composite slide is the LCM of the slides, every
query's fragment edges are marked inside it, and each resulting edge
carries the set of queries whose answers are due there, "ordered
descendingly by their range" (Algorithm 2's observation that larger
ranges correspond to deque nodes closer to the head).

One generalisation beyond the paper's pseudocode: Algorithm 1 treats a
query's range measured *in partials* (``qR``) as a constant, which holds
when all slides are equal (the paper's evaluation) or when the edge
pattern is uniform.  With heterogeneous slides the number of partials
inside a window varies with the window's phase in the composite cycle,
so the plan precomputes the lookback per (query, step).  Consumers that
need the constant-``qR`` fast path can check
:attr:`SharedPlan.uniform_lookback`.

Cutty slicing schedules answers in the middle of open partials, which
needs engine support rather than plan steps; :func:`build_shared_plan`
therefore accepts Panes and Pairs (see DESIGN.md "Known, intentional
deviations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from repro.errors import InvalidQueryError, PlanError
from repro.windows.query import Query
from repro.windows.slicing import (
    CUTTY,
    PAIRS,
    PANES,
    edges_for,
    partial_lengths,
)


@dataclass(frozen=True)
class ScheduledQuery:
    """A query due at a plan step, with its range in partials."""

    query: Query
    #: Number of partials covering the query's range at this step
    #: (Algorithm 1's ``qR``; may differ between steps of one cycle).
    lookback: int
    #: Index of ``query`` in :attr:`SharedPlan.queries`, so per-query
    #: state can live in a list instead of a dict hashed by ``Query``.
    slot: int


@dataclass(frozen=True)
class PlanStep:
    """One partial boundary inside the composite cycle."""

    #: Boundary offset within the cycle, in ``1..cycle_length``.
    end_offset: int
    #: Tuples aggregated into the partial that ends here.
    length: int
    #: Queries answered here, ordered descending by range.
    answers: Tuple[ScheduledQuery, ...] = field(default_factory=tuple)


def _count_edges_between(
    edges: Sequence[int], cycle: int, low: int, high: int
) -> int:
    """Count edge positions in the half-open stream interval (low, high].

    The edge pattern repeats every ``cycle`` tuples; ``edges`` holds the
    offsets of one cycle in ``1..cycle``.
    """
    if high <= low:
        return 0
    span = high - low
    full_cycles, remainder = divmod(span, cycle)
    count = full_cycles * len(edges)
    # Remaining stretch: (high - remainder, high].  Count edges whose
    # offset falls inside it, mapping stream positions to offsets.
    for offset in edges:
        # Smallest stream position > high - remainder with this offset:
        delta = (offset - (high - remainder)) % cycle
        position = (high - remainder) + (delta if delta else cycle)
        if position <= high:
            count += 1
    return count


class SharedPlan:
    """A fully-materialised shared execution plan.

    Attributes:
        queries: The ACQs combined into the plan.
        technique: Partial-aggregation technique name.
        cycle_length: The composite slide (LCM of slides).
        edges: Edge offsets within one cycle, sorted, in
            ``1..cycle_length``.
        steps: One :class:`PlanStep` per edge.
        w_size: Longest range in partials across all steps — the window
            length the final aggregator must hold (``wSize``).
    """

    def __init__(
        self,
        queries: Sequence[Query],
        technique: str,
        cycle_length: int,
        steps: Sequence[PlanStep],
    ):
        self.queries: Tuple[Query, ...] = tuple(queries)
        self.technique = technique
        self.cycle_length = cycle_length
        self.steps: Tuple[PlanStep, ...] = tuple(steps)
        self.edges: Tuple[int, ...] = tuple(s.end_offset for s in steps)
        lookbacks = [
            sq.lookback for step in self.steps for sq in step.answers
        ]
        if not lookbacks:
            raise PlanError("plan schedules no query answers")
        self.w_size: int = max(lookbacks)

    @property
    def partials_per_cycle(self) -> int:
        return len(self.steps)

    @property
    def uniform_lookback(self) -> bool:
        """True when every query's range-in-partials is step-invariant.

        This is the regime Algorithm 1's constant ``qR`` assumes; it
        always holds when all slides are equal.
        """
        per_query: dict = {}
        for step in self.steps:
            for sq in step.answers:
                seen = per_query.setdefault(sq.query, sq.lookback)
                if seen != sq.lookback:
                    return False
        return True

    def schedule(self) -> Iterator[PlanStep]:
        """Infinite cyclic iterator over plan steps (Execution phase)."""
        while True:
            yield from self.steps

    def describe(self) -> str:
        """Human-readable plan summary for reports and examples."""
        lines = [
            f"SharedPlan[{self.technique}] cycle={self.cycle_length} "
            f"partials/cycle={self.partials_per_cycle} wSize={self.w_size}",
        ]
        for step in self.steps:
            names = ", ".join(
                f"{sq.query.name}(lookback={sq.lookback})"
                for sq in step.answers
            )
            lines.append(
                f"  @{step.end_offset:>4} len={step.length:>3} "
                f"answers=[{names}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedPlan(queries={len(self.queries)}, "
            f"technique={self.technique!r}, wSize={self.w_size})"
        )


def build_shared_plan(
    queries: Sequence[Query], technique: str = PAIRS
) -> SharedPlan:
    """The ``buildSharedPlan(Q, PAT)`` of Algorithms 1 and 2.

    Args:
        queries: The ACQ set to combine; duplicates are collapsed.
        technique: ``"panes"`` or ``"pairs"``.  Cutty is rejected here
            because its window ends fall mid-partial; use the stream
            engine's Cutty pipeline for single-query Cutty execution.

    Raises:
        InvalidQueryError: a query that is not a count-based
            :class:`~repro.windows.query.Query` (a time query belongs
            to ``TimeWindowEngine`` or a ``mode="time"`` service).
        PlanError: empty query set, unknown or unsupported technique,
            or a query whose window boundaries miss the edge set (which
            would indicate a slicing bug — checked defensively).
    """
    for query in queries:
        if not isinstance(query, Query):
            raise InvalidQueryError(
                f"{query!r} is not a count-based Query; run time queries "
                "on a TimeWindowEngine or a service in mode='time'"
            )
    unique = sorted(set(queries))
    if not unique:
        raise PlanError("cannot build a shared plan for zero queries")
    if technique == CUTTY:
        raise PlanError(
            "cutty slicing answers queries mid-partial and is supported "
            "through the single-query engine pipeline, not shared plans; "
            "use 'panes' or 'pairs' here"
        )
    if technique not in (PANES, PAIRS):
        # edges_for raises with the full technique list.
        edges_for(technique, unique)
    cycle, edges = edges_for(technique, unique)
    lengths = partial_lengths(edges, cycle)

    edge_set = set(edges)
    steps: List[PlanStep] = []
    for end_offset, length in zip(edges, lengths):
        scheduled: List[ScheduledQuery] = []
        for slot, query in sorted(
            enumerate(unique),
            key=lambda item: item[1].range_size,
            reverse=True,
        ):
            if end_offset % query.slide != 0:
                continue
            start = end_offset - query.range_size
            start_offset = start % cycle
            if (cycle if start_offset == 0 else start_offset) not in edge_set:
                raise PlanError(
                    f"window start of {query.name} at offset {end_offset} "
                    f"does not align with a {technique} edge — slicing bug"
                )
            lookback = _count_edges_between(
                edges, cycle, start, end_offset
            )
            scheduled.append(ScheduledQuery(query, lookback, slot))
        steps.append(PlanStep(end_offset, length, tuple(scheduled)))
    return SharedPlan(unique, technique, cycle, steps)
