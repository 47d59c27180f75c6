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
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidOperatorError, WindowStateError
from repro.kernels import lift_is_identity
from repro.operators.algebraic import ComposedOperator
from repro.operators.base import AggregateOperator
from repro.operators.views import raw_view
from repro.windows.partial import PartialAggregator
from repro.windows.plan import SharedPlan, build_shared_plan
from repro.windows.query import Query

#: One emitted result: (stream position, query, answer).
Answer = Tuple[int, Query, Any]


def _lower_of(operator: AggregateOperator) -> Optional[Any]:
    """Bound ``lower``, or ``None`` for the inherited identity."""
    if type(operator).lower is AggregateOperator.lower:
        return None
    return operator.lower


class _InvEngine:
    """Invertible path: running answer + start pointer per query."""

    def __init__(self, operator: AggregateOperator, plan: SharedPlan):
        # Bound once (bound methods pickle); each step's due answers
        # are plain ``(slot, lookback, query)`` rows.
        self._combine = operator.combine
        self._inverse = operator.inverse
        self._identity = operator.identity
        self._lower = _lower_of(operator)
        self._schedule = [
            tuple((sq.slot, sq.lookback, sq.query) for sq in step.answers)
            for step in plan.steps
        ]
        # Retain enough history for the largest lookback plus the skew
        # between a query's answer steps (bounded by one cycle).
        # Partial number ``i`` (0-based) lives in slot ``i % capacity``.
        capacity = plan.w_size + plan.partials_per_cycle
        self._ring: List[Any] = [operator.identity] * capacity
        # Per-query state lives in lists in ``plan.queries`` order,
        # indexed by ``ScheduledQuery.slot`` — hashing the frozen
        # ``Query`` per partial cost more than the ⊕/⊖ themselves.
        self._answers: List[Any] = [operator.identity] * len(plan.queries)
        self._slots = tuple(range(len(plan.queries)))
        # Absolute index of the first partial still inside each query's
        # running answer.
        self._starts: List[int] = [0] * len(plan.queries)
        self._count = 0  # partials seen

    def _refold(self, start: int, count: int) -> Any:
        """The running answer over partials ``start .. count - 1``,
        folded afresh.

        For a ⊖ that cannot divide: a float ``product`` partial that
        underflowed to ``0.0`` is stored as a nonzero factor, so
        retiring it divides by zero.  The live partials are still in
        the ring, whose capacity is at least the largest lookback.
        """
        ring = self._ring
        capacity = len(ring)
        combine = self._combine
        answer = self._identity
        for index in range(start, count):
            answer = combine(answer, ring[index % capacity])
        return answer

    def on_partial(self, value, index: int, position: int) -> List[Answer]:
        ring = self._ring
        capacity = len(ring)
        count = self._count
        ring[count % capacity] = value
        self._count = count = count + 1
        combine = self._combine
        answers = self._answers
        for slot in self._slots:
            answers[slot] = combine(answers[slot], value)
        inverse = self._inverse
        lower = self._lower
        starts = self._starts
        results = []
        for slot, lookback, query in self._schedule[index]:
            answer = answers[slot]
            # Negative while the window fills: nothing to evict yet.
            target_start = count - lookback
            start = starts[slot]
            try:
                while start < target_start:
                    answer = inverse(answer, ring[start % capacity])
                    start += 1
            except ZeroDivisionError:
                answer = self._refold(target_start, count)
                start = target_start
            starts[slot] = start
            answers[slot] = answer
            if lower is not None:
                answer = lower(answer)
            results.append((position, query, answer))
        return results

    def on_partials(
        self, values: List[Any], indices: List[int], positions: List[int]
    ) -> List[Answer]:
        """:meth:`on_partial` over a run of partials, state in locals.

        Operation order per partial is exactly :meth:`on_partial`'s —
        every query's running answer takes ``⊕ value``, then each
        scheduled query retires its expired partials with ⊖, oldest
        first — so answers are equal by ``repr``.  State is written
        back once, in a ``finally``: an operator that raises mid-run
        leaves what the per-partial path would have left.
        """
        combine = self._combine
        inverse = self._inverse
        lower = self._lower
        schedule = self._schedule
        ring = self._ring
        capacity = len(ring)
        starts = self._starts
        answers = self._answers
        slots = self._slots
        count = self._count
        results: List[Answer] = []
        emit = results.append
        try:
            for value, index, position in zip(values, indices, positions):
                ring[count % capacity] = value
                count += 1
                for slot in slots:
                    answers[slot] = combine(answers[slot], value)
                for slot, lookback, query in schedule[index]:
                    answer = answers[slot]
                    target_start = count - lookback
                    start = starts[slot]
                    try:
                        while start < target_start:
                            answer = inverse(answer, ring[start % capacity])
                            start += 1
                    except ZeroDivisionError:
                        answer = self._refold(target_start, count)
                        start = target_start
                    starts[slot] = start
                    answers[slot] = answer
                    if lower is not None:
                        answer = lower(answer)
                    emit((position, query, answer))
        finally:
            self._count = count
        return results


class _NonInvEngine:
    """Selection path: one monotone deque shared by every query."""

    def __init__(self, operator: AggregateOperator, plan: SharedPlan):
        # Due answers: ``(lookback, query)`` rows, descending lookback.
        self._dominates = operator.dominates
        self._lower = _lower_of(operator)
        self._schedule = [
            tuple((sq.lookback, sq.query) for sq in step.answers)
            for step in plan.steps
        ]
        self._deque: deque = deque()
        self._w_size = plan.w_size
        self._count = 0

    def on_partial(self, value, index: int, position: int) -> List[Answer]:
        nodes_deque = self._deque
        count = self._count + 1
        if nodes_deque and nodes_deque[0][0] <= count - self._w_size:
            nodes_deque.popleft()
        dominates = self._dominates
        while nodes_deque and dominates(nodes_deque[-1][1], value):
            nodes_deque.pop()
        if not nodes_deque:  # nothing to compare: test it on itself
            dominates(value, value)
        nodes_deque.append((count, value))
        # Stored last: a value the first ``dominates`` refuses leaves
        # the count and every live node as they were.
        self._count = count

        lower = self._lower
        results = []
        nodes = iter(nodes_deque)
        pos, val = next(nodes)
        for lookback, query in self._schedule[index]:
            threshold = count - lookback
            while pos <= threshold:
                pos, val = next(nodes)
            answer = val if lower is None else lower(val)
            results.append((position, query, answer))
        return results

    def on_partials(
        self, values: List[Any], indices: List[int], positions: List[int]
    ) -> List[Answer]:
        """:meth:`on_partial` over a run of partials, state in locals.

        Same deque operations in the same order per partial; the
        partial count is written back once, in a ``finally``.
        """
        dominates = self._dominates
        lower = self._lower
        schedule = self._schedule
        nodes_deque = self._deque
        popleft = nodes_deque.popleft
        pop = nodes_deque.pop
        push = nodes_deque.append
        w_size = self._w_size
        count = self._count
        results: List[Answer] = []
        emit = results.append
        try:
            for value, index, position in zip(values, indices, positions):
                count += 1
                if nodes_deque and nodes_deque[0][0] <= count - w_size:
                    popleft()
                while nodes_deque and dominates(nodes_deque[-1][1], value):
                    pop()
                push((count, value))
                nodes = iter(nodes_deque)
                pos, val = next(nodes)
                for lookback, query in schedule[index]:
                    threshold = count - lookback
                    while pos <= threshold:
                        pos, val = next(nodes)
                    answer = val if lower is None else lower(val)
                    emit((position, query, answer))
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
        self._lower = operator.lower
        self._parts = [
            _engine_for(raw_view(component), plan)
            for component in operator.components
        ]

    def on_partial(self, value, index: int, position: int) -> List[Answer]:
        lower = self._lower
        # One row per due query: its answer triple from each component.
        return [
            (position, row[0][1], lower(tuple([a for _, _, a in row])))
            for row in zip(*[
                part.on_partial(slot, index, position)
                for part, slot in zip(self._parts, value)
            ])
        ]

    def on_partials(
        self, values: List[Any], indices: List[int], positions: List[int]
    ) -> List[Answer]:
        """:meth:`on_partial` per partial: a raising component leaves
        exactly what the per-partial path would have left."""
        results: List[Answer] = []
        for value, index, position in zip(values, indices, positions):
            results += self.on_partial(value, index, position)
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
        self._cycle = len(self.plan.steps)
        #: Every plan step is one tuple long (any slide-1 query makes
        #: it so): :meth:`feed` then skips the partial stage.
        self._unit_steps = all(step.length == 1 for step in self.plan.steps)
        # That partial, ``identity ⊕ lift(value)``, skips an inherited
        # identity ``lift`` and a selecting ⊕ (it returns its other
        # operand); other ⊕ run, as ``0 + -0.0`` is ``0.0``.
        self._lift = None if lift_is_identity(operator) else operator.lift
        self._seed = None if operator.selects else operator.combine
        # Step the last feed_partial() closed, ``None`` before: feed()
        # and feed_partial() are exclusive drive modes of one instance.
        self._partial_index: Optional[int] = None
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
        index = self._partial_index
        index = 0 if index is None else (index + 1) % self._cycle
        self._partial_index = index
        return self._engine.on_partial(value, index, position)

    def feed(self, value: Any) -> List[Answer]:
        """Consume one tuple; return the answers it released.

        A value the operator refuses (``lift`` or ⊕ raises in the
        partial stage, or the first ``dominates`` test that replaces a
        selecting ⊕ at slide 1) leaves this instance exactly as it
        was.  A later failure inside the final-aggregation update is
        not covered: the window state can no longer be trusted.
        """
        if self._partial_index is not None:
            raise WindowStateError(
                "feed() cannot be mixed with feed_partial() on the "
                "same SharedSlickDeque instance"
            )
        partials = self._partials
        if self._unit_steps:
            # Slide-1 bypass: every step closes on its first tuple, so
            # the open partial is always the identity.  Step and
            # position advance once the final stage has returned.
            lift = self._lift
            partial = value if lift is None else lift(value)
            seed = self._seed
            if seed is not None:
                partial = seed(self._identity, partial)
            index = partials.step_index
            position = partials.position + 1
            answers = self._engine.on_partial(partial, index, position)
            partials.step_index = (index + 1) % self._cycle
            partials.position = position
            return answers
        completed = partials.feed(value)
        if completed is None:
            return []
        partial, _, position = completed
        # feed() has already moved step_index past the step it closed.
        index = (partials.step_index - 1) % self._cycle
        return self._engine.on_partial(partial, index, position)

    def feed_many(self, values: Iterable[Any]) -> List[Answer]:
        """Consume a batch of tuples; return every answer released.

        Raw tuples are folded into partials with one segmented kernel
        call (:meth:`PartialAggregator.feed_columns`); the final
        aggregation then advances over the call's whole run of
        partials in one loop, in exactly the per-partial operation
        order.  Answers — values, order, and reported positions — are
        byte-identical to feeding tuple by tuple.
        """
        if self._partial_index is not None:
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
