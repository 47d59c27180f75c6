"""SlickDeque (Inv) — Algorithm 1 of the paper.

"For processing invertible aggregates we propose SlickDeque (Inv), a
modified Panes (Inv) extended for processing multiple ACQs."  Each
distinct query range keeps one running answer in the ``answers`` map;
every slide applies the aggregate operation ``⊕`` with the incoming
partial and the inverse operation ``⊖`` with the expiring one
(Algorithm 1 line 24) — exactly 2 operations per answer per slide
(Table 1: single query 2, max-multi-query 2n, space n and 2n).

The ``partials`` circular array is shared by all ranges; answers for
queries over the same range are shared even when their slides differ
(Section 3.2: "Queries operating over the same range can share results
even if they have different slides").
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.baselines.base import MultiQueryAggregator, SlidingAggregator
from repro.kernels import as_sequence, kernel_for
from repro.operators.base import AggregateOperator, require_invertible
from repro.structures.circular_buffer import CircularBuffer


class SlickDequeInv(SlidingAggregator):
    """Single-query SlickDeque (Inv): 2 aggregate operations per slide."""

    supports_multi_query = True

    def __init__(self, operator: AggregateOperator, window: int):
        super().__init__(operator, window)
        self._op = require_invertible(operator)
        self._kernel = kernel_for(self._op)
        self._partials = CircularBuffer(window, fill=operator.identity)
        self._answer = operator.identity

    def push(self, value: Any) -> None:
        new_partial = self._op.lift(value)
        expiring = self._partials.push(new_partial)
        # ans = ans ⊕ newPartial ⊖ partials[startPos]  (Alg. 1 line 24)
        self._answer = self._op.inverse(
            self._op.combine(self._answer, new_partial), expiring
        )

    def push_many(self, values: Sequence[Any]) -> None:
        """Bulk slide: fold the batch in, retire the expired run with ⊖.

        Telescopes Algorithm 1 line 24 over the batch:

        ``ans' = (ans ⊕ v₁ ⊕ … ⊕ vₖ) ⊖ (e₁ ⊕ … ⊕ eₖ)``

        The partials ring absorbs the whole batch in a handful of slice
        writes and hands back the expired run, so the per-tuple cost of
        ``k`` method calls and ``2k`` Python-level operator dispatches
        collapses into two kernel folds — one C-level reduction each
        for the builtin operators.  Invertibility makes the telescoped
        form algebraically identical to ``k`` single slides; for
        integer domains the answers are bit-identical, while float
        answers may differ from the per-tuple chain in the final ulps:
        each kernel fold is the exact left fold, but the telescoped
        form regroups the additions and subtractions.
        """
        values = as_sequence(values)
        if not len(values):
            return
        kernel = self._kernel
        lifted = kernel.lift_many(values)
        expired = self._partials.push_many(lifted)
        op = self._op
        self._answer = op.inverse(
            kernel.fold_aggs(lifted, self._answer),
            kernel.fold_aggs(expired, op.identity),
        )

    def query(self) -> Any:
        return self._op.lower(self._answer)

    def resize(self, window: int) -> None:
        """Dynamic resize (Section 3.1): rebuild ring and answer.

        The partials ring already retains the full window, so resizing
        re-allocates it with the newest ``min(len, window)`` partials
        and re-derives the running answer with one fold — an O(n)
        operation that the steady 2-ops-per-slide regime resumes from
        immediately.
        """
        from repro.baselines.base import validate_window

        new_window = validate_window(window)
        retained = list(
            self._partials.last(min(len(self._partials), new_window))
        )
        fresh = CircularBuffer(new_window, fill=self.operator.identity)
        for value in retained:
            fresh.push(value)
        self._partials = fresh
        self._answer = self._op.fold_aggs(retained)
        self.window = new_window

    def memory_words(self) -> int:
        """Section 4.2: ``n`` partials plus the one stored answer."""
        return self._partials.memory_words() + 1


class SlickDequeInvMulti(MultiQueryAggregator):
    """Multi-query SlickDeque (Inv): the ``answers`` map of Algorithm 1.

    One running answer per distinct range; every slide costs exactly
    two operations per answer (one ``⊕``, one ``⊖``), independent of
    the window size — the paper's 2n max-multi-query complexity.
    """

    def __init__(self, operator: AggregateOperator, ranges: Sequence[int]):
        super().__init__(operator, ranges)
        self._op = require_invertible(operator)
        # wSize is the longest range (Alg. 1 line 5); the shared
        # partials array is initialised with initVal (lines 8-10).
        self._partials = CircularBuffer(self.window, fill=operator.identity)
        # answers.insert(q.range, initVal)  (lines 11-13)
        self._answers: Dict[int, Any] = {
            r: operator.identity for r in self.ranges
        }

    def step(self, value: Any) -> Dict[int, Any]:
        op = self._op
        new_partial = op.lift(value)
        partials = self._partials
        # Update every (qR → ans) mapping (Alg. 1 lines 19-25): rewind
        # currPos by the range to find the expiring partial.  The
        # expiring slot for the longest range is the one about to be
        # overwritten; shorter ranges read younger slots.
        for r, ans in self._answers.items():
            if r == self.window:
                expiring = partials.peek_expiring()
            else:
                expiring = partials.at_offset(r)
            self._answers[r] = op.inverse(
                op.combine(ans, new_partial), expiring
            )
        partials.push(new_partial)
        return {r: op.lower(ans) for r, ans in self._answers.items()}

    def memory_words(self) -> int:
        """Section 4.2: ``n`` partials + one word per distinct range."""
        return self._partials.memory_words() + len(self._answers)
