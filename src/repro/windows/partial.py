"""Partial aggregation: folding raw tuples into partials.

The ``partialAggregator.aggregate(length, PAT)`` of Algorithms 1 and 2:
raw stream values are folded with the query operator until the current
plan step's length is reached, then the completed partial (already a
lifted aggregate value) is handed to the final aggregator together with
its plan step.

:class:`PartialAggregator` is deliberately a push-based object — the
stream engine feeds it one tuple at a time and reacts to completed
partials — so sources never need to be materialised.
"""

from __future__ import annotations

from typing import Any, Iterable, List, NamedTuple, Optional, Tuple

from repro.kernels import as_sequence, kernel_for
from repro.operators.base import Agg, AggregateOperator
from repro.windows.plan import PlanStep, SharedPlan


class CompletedPartial(NamedTuple):
    """A closed partial aggregate and the plan step that closed it."""

    value: Agg
    step: PlanStep
    #: 1-based stream position of the last tuple folded in.
    position: int


class PartialAggregator:
    """Fold tuples into partials according to a shared plan.

    The paper's Example 1: with two Max ACQs of slides 2 and 4, "the
    calculation producing partial aggregates only needs to be performed
    once every 2 tuples, and both ACQs can use these partial
    aggregates" — this class is that shared pre-aggregation.

    :attr:`position` and :attr:`step_index` are plain attributes: a
    caller that closes a length-1 step itself, with nothing folded into
    the open partial (``SharedSlickDeque.feed``'s slide-1 bypass),
    advances both in place and can still interleave :meth:`feed` and
    :meth:`feed_many` on the same instance.
    """

    def __init__(self, operator: AggregateOperator, plan: SharedPlan):
        self.operator = operator
        self.plan = plan
        self._identity = operator.identity
        #: Index into ``plan.steps`` of the step the open partial will
        #: close; an ``int`` so the feeds advance it in a local.
        self.step_index = 0
        #: 1-based position of the last tuple consumed.
        self.position = 0
        self._accumulated = self._identity
        self._count = 0

    @property
    def open_value(self) -> Agg:
        """The running value of the still-open partial.

        Cutty-style final aggregation reads this mid-partial; for Panes
        and Pairs it is only interesting for debugging.
        """
        return self._accumulated

    def feed(self, value: Any) -> Optional[CompletedPartial]:
        """Fold one tuple; return the partial it completed, if any.

        ``lift`` and ⊕ run before any state is stored, so a value the
        operator refuses raises and leaves the aggregator exactly as it
        was — position included.
        """
        operator = self.operator
        accumulated = operator.combine(
            self._accumulated, operator.lift(value)
        )
        self.position = position = self.position + 1
        count = self._count + 1
        steps = self.plan.steps
        step_index = self.step_index
        step = steps[step_index]
        if count < step.length:
            self._accumulated = accumulated
            self._count = count
            return None
        self._accumulated = self._identity
        self._count = 0
        self.step_index = (step_index + 1) % len(steps)
        return CompletedPartial(accumulated, step, position)

    def feed_many(self, values: Iterable[Any]) -> List[CompletedPartial]:
        """Fold a batch, returning every partial it completed.

        The row view of :meth:`feed_columns`: same fold, same state
        left behind, same failure rule.
        """
        partials, indices, positions = self.feed_columns(values)
        steps = [self.plan.steps[index] for index in indices]
        return list(map(CompletedPartial, partials, steps, positions))

    def feed_columns(
        self, values: Iterable[Any]
    ) -> Tuple[List[Agg], List[int], List[int]]:
        """Fold a batch into three columns, one entry per closed partial.

        Returns ``(partials, indices, positions)``: each completed
        partial's value, the ``plan.steps`` index of the step that
        closed it and the 1-based stream position of its last tuple —
        what :meth:`feed_many` zips into :class:`CompletedPartial` rows
        (the shared engine's bulk path consumes the columns).

        The call's cut points come from the plan steps alone; the whole
        batch then folds with one segmented kernel call
        (:meth:`repro.kernels.BatchKernel.fold_runs`), the first run
        seeded with the running accumulator — answers (and the
        open-partial state left behind) are byte-identical to feeding
        each tuple through :meth:`feed`, in every domain.  State is
        stored once, after the fold: a batch holding a value the
        operator refuses raises and leaves the aggregator as it was
        before the call.
        """
        values = as_sequence(values)
        steps = self.plan.steps
        cycle = len(steps)
        total = len(values)
        count = self._count
        step_index = self.step_index
        bounds = [0]
        closed: List[int] = []
        step = steps[step_index]
        end = step.length - count
        while end <= total:
            bounds.append(end)
            closed.append(step_index)
            step_index = (step_index + 1) % cycle
            step = steps[step_index]
            end += step.length
        position = self.position
        positions = [position + cut for cut in bounds[1:]]
        last = bounds[-1]
        if last < total:
            bounds.append(total)  # the tail run: the new open partial
        partials = kernel_for(self.operator).fold_runs(
            values, bounds, self._accumulated
        )
        if last < total:
            self._accumulated = partials.pop()
            self._count = total - last if closed else count + total
        elif closed:
            self._accumulated = self._identity
            self._count = 0
        self.position = position + total
        self.step_index = step_index
        return partials, closed, positions
