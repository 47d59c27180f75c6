"""Shared-plan SlickDeque execution (Algorithms 1 and 2, both phases).

:class:`SharedSlickDeque` is the full Preparation + Execution loop: it
builds the shared plan from the ACQ set and a partial-aggregation
technique, folds raw tuples into partials, and runs the
invertibility-appropriate SlickDeque update per partial, emitting
answers for exactly the queries scheduled at each edge.

Generalisation note (see :mod:`repro.windows.plan`): Algorithm 1
assumes each query's range-in-partials ``qR`` is constant.  With
heterogeneous slides it varies across the composite cycle, so the
invertible path here keeps a per-query *start pointer* into the
partials ring and evicts as many partials as the current step's
lookback requires — one ⊕ per new partial plus amortized one ⊖ per
evicted partial per query, which degenerates to exactly Algorithm 1's
two operations when the plan is uniform.

The engine behind the plan is chosen the way
:func:`~repro.core.facade.make_slickdeque` chooses a single-query
SlickDeque: invertible operators ride the start-pointer path,
selection-type ones the shared monotone deque, and a non-invertible
algebraic composition (Range = Max − Min) runs one engine per
component over its slot of the tuple partial — "calculating the
algebraic aggregations follows trivially" (Section 3.1).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidOperatorError, WindowStateError
from repro.operators.algebraic import ComposedOperator
from repro.operators.base import AggregateOperator
from repro.operators.views import raw_view
from repro.windows.partial import PartialAggregator
from repro.windows.plan import PlanCursor, SharedPlan, build_shared_plan
from repro.windows.query import Query

#: One emitted result: (stream position, query, answer).
Answer = Tuple[int, Query, Any]


class _InvEngine:
    """Invertible path: running answer + start pointer per query."""

    def __init__(self, operator: AggregateOperator, plan: SharedPlan):
        self._op = operator
        # Retain enough history for the largest lookback plus the skew
        # between a query's answer steps (bounded by one cycle).
        # Partial number ``i`` (0-based) lives in slot ``i % capacity``.
        capacity = plan.w_size + plan.partials_per_cycle
        self._ring: List[Any] = [operator.identity] * capacity
        # Per-query state lives in lists in ``plan.queries`` order,
        # indexed by ``ScheduledQuery.slot`` — hashing the frozen
        # ``Query`` per partial cost more than the ⊕/⊖ themselves.
        self._answers: List[Any] = [operator.identity] * len(plan.queries)
        # Absolute index of the first partial still inside each query's
        # running answer.
        self._starts: List[int] = [0] * len(plan.queries)
        self._count = 0  # partials seen

    def on_partial(self, value: Any, scheduled, position: int) -> List[Answer]:
        op = self._op
        ring = self._ring
        capacity = len(ring)
        count = self._count
        ring[count % capacity] = value
        self._count = count = count + 1
        combine = op.combine
        self._answers = answers = [
            combine(answer, value) for answer in self._answers
        ]
        starts = self._starts
        results = []
        for sq in scheduled:
            slot = sq.slot
            answer = answers[slot]
            # Negative while the window fills: nothing to evict yet.
            target_start = count - sq.lookback
            start = starts[slot]
            while start < target_start:
                answer = op.inverse(answer, ring[start % capacity])
                start += 1
            starts[slot] = start
            answers[slot] = answer
            results.append((position, sq.query, op.lower(answer)))
        return results

    def on_partials(
        self, values: List[Any], steps, positions: List[int]
    ) -> List[Answer]:
        """:meth:`on_partial` over a run of partials, state in locals.

        Operation order per partial is exactly :meth:`on_partial`'s —
        every query's running answer takes ``⊕ value``, then each
        scheduled query retires its expired partials with ⊖, oldest
        first — so answers are equal by ``repr``.  State is written
        back once, in a ``finally``: an operator that raises mid-run
        leaves what the per-partial path would have left.
        """
        op = self._op
        combine = op.combine
        inverse = op.inverse
        lower = op.lower
        ring = self._ring
        capacity = len(ring)
        starts = self._starts
        answers = self._answers
        count = self._count
        results: List[Answer] = []
        emit = results.append
        try:
            for value, step, position in zip(values, steps, positions):
                ring[count % capacity] = value
                count += 1
                answers = list(map(combine, answers, repeat(value)))
                for sq in step.answers:
                    slot = sq.slot
                    answer = answers[slot]
                    target_start = count - sq.lookback
                    start = starts[slot]
                    while start < target_start:
                        answer = inverse(answer, ring[start % capacity])
                        start += 1
                    starts[slot] = start
                    answers[slot] = answer
                    emit((position, sq.query, lower(answer)))
        finally:
            self._count = count
            self._answers = answers
        return results


class _NonInvEngine:
    """Selection path: one monotone deque shared by every query."""

    def __init__(self, operator: AggregateOperator, plan: SharedPlan):
        self._op = operator
        self._deque: deque = deque()
        self._w_size = plan.w_size
        self._count = 0

    def on_partial(self, value: Any, scheduled, position: int) -> List[Answer]:
        op = self._op
        nodes_deque = self._deque
        self._count = count = self._count + 1
        if nodes_deque and nodes_deque[0][0] <= count - self._w_size:
            nodes_deque.popleft()
        dominates = op.dominates
        while nodes_deque and dominates(nodes_deque[-1][1], value):
            nodes_deque.pop()
        nodes_deque.append((count, value))

        lower = op.lower
        results = []
        nodes = iter(nodes_deque)
        pos, val = next(nodes)
        for sq in scheduled:  # descending lookback (plan ordering)
            threshold = count - sq.lookback
            while pos <= threshold:
                pos, val = next(nodes)
            results.append((position, sq.query, lower(val)))
        return results

    def on_partials(
        self, values: List[Any], steps, positions: List[int]
    ) -> List[Answer]:
        """:meth:`on_partial` over a run of partials, state in locals.

        Same deque operations in the same order per partial; the
        partial count is written back once, in a ``finally``.
        """
        op = self._op
        dominates = op.dominates
        lower = op.lower
        nodes_deque = self._deque
        popleft = nodes_deque.popleft
        pop = nodes_deque.pop
        push = nodes_deque.append
        w_size = self._w_size
        count = self._count
        results: List[Answer] = []
        emit = results.append
        try:
            for value, step, position in zip(values, steps, positions):
                count += 1
                if nodes_deque and nodes_deque[0][0] <= count - w_size:
                    popleft()
                while nodes_deque and dominates(nodes_deque[-1][1], value):
                    pop()
                push((count, value))
                nodes = iter(nodes_deque)
                pos, val = next(nodes)
                for sq in step.answers:  # descending lookback
                    threshold = count - sq.lookback
                    while pos <= threshold:
                        pos, val = next(nodes)
                    emit((position, sq.query, lower(val)))
        finally:
            self._count = count
        return results


class _ComponentwiseEngine:
    """Algebraic path: one engine per component of a composition.

    Component ``i`` runs over slot ``i`` of every tuple partial, raw
    (its own ``lower`` deferred), and each scheduled query's component
    answers are zipped and finalised by the composition's ``lower``.
    """

    def __init__(self, operator: ComposedOperator, plan: SharedPlan):
        self._op = operator
        self._parts = [
            _engine_for(raw_view(component), plan)
            for component in operator.components
        ]

    def _zip(self, per_part: List[List[Answer]]) -> List[Answer]:
        lower = self._op.lower
        results = []
        for row in zip(*per_part):
            position, query, _ = row[0]
            answers = tuple(answer for _, _, answer in row)
            results.append((position, query, lower(answers)))
        return results

    def on_partial(self, value: Any, scheduled, position: int) -> List[Answer]:
        return self._zip([
            part.on_partial(slot, scheduled, position)
            for part, slot in zip(self._parts, value)
        ])

    def on_partials(
        self, values: List[Any], steps, positions: List[int]
    ) -> List[Answer]:
        """:meth:`on_partial` per partial: a raising component leaves
        exactly what the per-partial path would have left."""
        results: List[Answer] = []
        for value, step, position in zip(values, steps, positions):
            results += self.on_partial(value, step.answers, position)
        return results


def _engine_for(operator: AggregateOperator, plan: SharedPlan) -> Any:
    """The engine for ``operator``, dispatched as
    :func:`~repro.core.facade.make_slickdeque` dispatches."""
    if operator.invertible:
        return _InvEngine(operator, plan)
    if operator.selects:
        return _NonInvEngine(operator, plan)
    if isinstance(operator, ComposedOperator):
        return _ComponentwiseEngine(operator, plan)
    raise InvalidOperatorError(
        f"operator {operator.name!r} is neither invertible, selection-"
        "type, nor an algebraic composition; SlickDeque targets "
        "distributive and algebraic aggregations (paper Section 3.1)"
    )


class SharedSlickDeque:
    """Multi-ACQ SlickDeque over a shared execution plan.

    Args:
        queries: The ACQ set (ranges/slides in tuples).
        operator: Aggregate operation; its invertibility selects the
            processing scheme, per the paper's headline contribution
            (a non-invertible composition runs per component).
        technique: Partial-aggregation technique for the plan
            (``"panes"`` or ``"pairs"``).
        plan: Optionally a pre-built plan (must match ``queries``).

    Raises:
        InvalidOperatorError: operator neither invertible, nor
            selection-type, nor an algebraic composition (e.g.
            ``bit_and``).
    """

    def __init__(
        self,
        queries: Iterable[Query],
        operator: AggregateOperator,
        technique: str = "pairs",
        plan: Optional[SharedPlan] = None,
    ):
        self.queries = tuple(queries)
        self.operator = operator
        self.plan = plan or build_shared_plan(self.queries, technique)
        self._partials = PartialAggregator(operator, self.plan)
        self._identity = operator.identity
        #: Every plan step is one tuple long (any slide-1 query makes
        #: it so): :meth:`feed` then skips the partial stage.
        self._unit_steps = all(step.length == 1 for step in self.plan.steps)
        # Lazily created by feed_partial(); feed() and feed_partial()
        # are mutually exclusive drive modes for one instance.
        self._partial_cursor: Optional[PlanCursor] = None
        self._engine = _engine_for(operator, self.plan)

    @property
    def w_size(self) -> int:
        """The plan's window requirement in partials (``wSize``)."""
        return self.plan.w_size

    def feed_partial(self, value: Any, position: int) -> List[Answer]:
        """Advance one plan step with an already-folded partial.

        The sharded service folds each slice's tuples inside shard
        workers and recombines the per-shard partials across shards;
        this entry point lets such an externally-merged partial drive
        the final aggregation directly, bypassing the tuple-level
        :class:`~repro.windows.partial.PartialAggregator`.  The caller
        is responsible for handing over exactly one partial per plan
        step, in plan order.

        Args:
            value: The completed partial (already lifted and combined).
            position: 1-based global stream position of the slice end,
                reported in the emitted answers.

        Raises:
            WindowStateError: when this instance already consumed raw
                tuples through :meth:`feed`; the two drive modes cannot
                be mixed on one instance.
        """
        if self._partials.position:
            raise WindowStateError(
                "feed_partial() cannot be mixed with feed() on the "
                "same SharedSlickDeque instance"
            )
        if self._partial_cursor is None:
            self._partial_cursor = PlanCursor(self.plan)
        self._partial_cursor.get_next_partial_length()
        step = self._partial_cursor.current_step
        return self._engine.on_partial(value, step.answers, position)

    def feed(self, value: Any) -> List[Answer]:
        """Consume one tuple; return the answers it released.

        A value the operator refuses (``lift`` or ⊕ raises in the
        partial stage) leaves this instance exactly as it was.  A
        failure inside the final-aggregation update is not covered:
        the window state can no longer be trusted afterwards.
        """
        if self._partial_cursor is not None:
            raise WindowStateError(
                "feed() cannot be mixed with feed_partial() on the "
                "same SharedSlickDeque instance"
            )
        partials = self._partials
        if self._unit_steps:
            # Slide-1 bypass: every step closes on its first tuple, so
            # the open partial is always the identity and the partial
            # stage's accumulate / compare / reset round trip is one
            # lift and one ⊕.  ⊕ with the identity still runs: it is
            # not a no-op bit for bit (``0 + -0.0`` is ``0.0``).
            op = self.operator
            partial = op.combine(self._identity, op.lift(value))
            steps = self.plan.steps
            index = partials.step_index
            partials.step_index = (index + 1) % len(steps)
            partials.position = position = partials.position + 1
            return self._engine.on_partial(
                partial, steps[index].answers, position
            )
        completed = partials.feed(value)
        if completed is None:
            return []
        partial, step, position = completed
        return self._engine.on_partial(partial, step.answers, position)

    def feed_many(self, values: Iterable[Any]) -> List[Answer]:
        """Consume a batch of tuples; return every answer released.

        Raw tuples are folded into partials with one segmented kernel
        call (:meth:`PartialAggregator.feed_columns`); the final
        aggregation then advances over the call's whole run of
        partials in one loop, in exactly the per-partial operation
        order.  Answers — values, order, and reported positions — are
        byte-identical to feeding tuple by tuple.
        """
        if self._partial_cursor is not None:
            raise WindowStateError(
                "feed_many() cannot be mixed with feed_partial() on "
                "the same SharedSlickDeque instance"
            )
        return self._engine.on_partials(
            *self._partials.feed_columns(values)
        )

    def run(self, values: Iterable[Any]) -> Iterator[Answer]:
        """Stream an iterable through the plan, yielding every answer."""
        for value in values:
            yield from self.feed(value)
