"""SlickDeque (Non-Inv) — Algorithm 2 of the paper.

A deque of ``(pos, val)`` nodes:

* an arriving partial first drops the expired head node, if any
  (Algorithm 2 lines 11-13);
* then pops every tail node whose value the new partial dominates —
  ``d.back.val ⊕ newPartial == newPartial`` means the tail "will never
  be a query answer" (lines 15-17);
* the new node is appended (line 19);
* every query's answer is the value of the first node inside its
  range, found in one head-to-tail sweep shared by all queries in
  descending-range order (lines 20-41).

Positions here are **unbounded sequence numbers** instead of the
paper's wrap-around ``currPos``: a node is expired when
``pos ≤ current − window`` and inside a range ``r`` when
``pos > current − r``.  This is semantically identical to the modular
Answer Loop 1 / Answer Loop 2 pair (the boundary-crossing cases exist
only because positions wrap) and removes the window-boundary branches;
the equivalence is exercised in the test suite against
:class:`~repro.core.slickdeque_noninv_wrapped.WrappedSlickDequeNonInvMulti`.

Node storage: the default classes keep nodes in a C-implemented
``collections.deque`` — the fastest structure CPython offers for this
access pattern — and report memory through the paper's §4.2 chunked
formula (``2·nodes`` value/position words plus chunk bookkeeping for
``√n``-slot chunks).  :class:`ChunkedSlickDequeNonInv` instead stores
nodes on the library's own
:class:`~repro.structures.chunked_deque.ChunkedDeque`, whose
*structural* accounting (including real end-chunk over-allocation) the
chunk-size ablation bench sweeps; tests pin both variants to identical
answers.

Complexity (Section 4.1): every partial causes at most two ⊕
operations in its lifetime (one entering, one when a newer partial
evicts it), so the amortized cost is input-dependent but always below
2; the worst single slide is n operations, reachable only on an
adversarially descending input (probability 1/n! under uniform data).
Space (Section 4.2): at most ``2n + 4k + 4n/k`` words with ``k = √n``
chunks, and as little as O(1) when the input keeps the deque short.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, Optional, Sequence

from repro.baselines.base import MultiQueryAggregator, SlidingAggregator
from repro.errors import WindowStateError
from repro.kernels import as_sequence, kernel_for
from repro.operators.base import AggregateOperator, require_selection
from repro.structures.chunked_deque import ChunkedDeque, optimal_chunk_size


def chunked_space_words(nodes: int, window: int) -> int:
    """The §4.2 space formula for ``nodes`` two-word deque nodes.

    Chunks hold ``√window`` nodes; the partially-filled chunks at both
    ends are charged in full ("an overall allocation of up to two
    chunks' worth of space"), and each chunk costs two pointer words.
    """
    if nodes == 0:
        return 0
    chunk = max(1, math.isqrt(window))
    chunks = -(-nodes // chunk) + 1  # straddle slack at the two ends
    return 2 * chunk * chunks + 2 * chunks


class SlickDequeNonInv(SlidingAggregator):
    """Single-query SlickDeque (Non-Inv).

    The whole-window answer is always the head node's value, so a
    query costs zero aggregate operations; all ⊕ work happens in the
    dominance pops.
    """

    supports_multi_query = True

    def __init__(self, operator: AggregateOperator, window: int):
        super().__init__(operator, window)
        self._op = require_selection(operator)
        self._kernel = kernel_for(self._op)
        self._nodes: deque = deque()
        self._seq = 0
        # Bind the hot-path callables once; push() runs per tuple.
        self._lift = self._op.lift
        self._dominates = self._op.dominates

    def push(self, value: Any) -> None:
        seq = self._seq + 1
        self._seq = seq
        new_partial = self._lift(value)
        nodes = self._nodes
        # Expired head (Alg. 2 lines 11-13): at most one per slide.
        if nodes and nodes[0][0] <= seq - self.window:
            nodes.popleft()
        # Dominated tail nodes will never be an answer (lines 15-17).
        dominates = self._dominates
        while nodes and dominates(nodes[-1][1], new_partial):
            nodes.pop()
        nodes.append((seq, new_partial))

    def push_many(self, values: Sequence[Any]) -> None:
        """Bulk push: pre-collapse the batch to its dominance chain.

        A batch element survives ``k`` sequential pushes iff no later
        batch element dominates it — i.e. iff it belongs to the batch's
        *suffix chain* (strict suffix extrema for Max/Min, one
        backward scan in the kernel).  The merge then runs Algorithm 2 once
        with the chain's head standing in for every evicted batch
        element: the chain head carries the batch's dominant value, so
        the pre-existing tail nodes it dominates are exactly those the
        per-tuple pops would have removed.  Expired heads are dropped
        in one final sweep — per-tuple expiry is monotone in ``seq``,
        so deferring it never changes which nodes survive.  The final
        deque (positions and values) is identical to ``k`` single
        pushes in every domain.
        """
        values = as_sequence(values)
        k = len(values)
        if not k:
            return
        seq0 = self._seq
        self._seq = seq0 + k
        nodes = self._nodes
        window = self.window
        if k >= window:
            # Every pre-existing node and every batch element older
            # than the last `window` expires by batch end.
            offset = k - window
            chain = self._kernel.suffix_chain(values[offset:])
            nodes.clear()
            base = seq0 + offset
            nodes.extend((base + i + 1, agg) for i, agg in chain)
            return
        chain = self._kernel.suffix_chain(values)
        dominates = self._dominates
        head_agg = chain[0][1]
        while nodes and dominates(nodes[-1][1], head_agg):
            nodes.pop()
        nodes.extend((seq0 + i + 1, agg) for i, agg in chain)
        threshold = seq0 + k - window
        while nodes and nodes[0][0] <= threshold:
            nodes.popleft()

    def query(self) -> Any:
        if not self._nodes:
            raise WindowStateError(
                "query on an empty SlickDeque (no value pushed yet)"
            )
        return self._op.lower(self._nodes[0][1])

    @property
    def occupancy(self) -> int:
        """Current number of deque nodes (for the adversarial bench)."""
        return len(self._nodes)

    def resize(self, window: int) -> None:
        """Dynamic resize (Section 3.1): O(shrink) head expiry.

        Growing is free (nodes simply live longer from now on);
        shrinking pops the head nodes that fall outside the new
        window — the same expiry rule ``push`` applies each slide.
        """
        from repro.baselines.base import validate_window

        self.window = validate_window(window)
        nodes = self._nodes
        while nodes and nodes[0][0] <= self._seq - self.window:
            nodes.popleft()

    def memory_words(self) -> int:
        return chunked_space_words(len(self._nodes), self.window)


class ChunkedSlickDequeNonInv(SlickDequeNonInv):
    """Algorithm 2 on the library's own chunk-allocated deque.

    The parent's code, unchanged, over a
    :class:`~repro.structures.chunked_deque.ChunkedDeque` instead of a
    ``collections.deque``: identical answers, with memory accounted
    structurally from the actual chunk allocation, which is what the
    chunk-size ablation bench varies (§4.2's ``k`` parameter).
    """

    def __init__(
        self,
        operator: AggregateOperator,
        window: int,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(operator, window)
        self._nodes = ChunkedDeque(
            chunk_size=chunk_size or optimal_chunk_size(window),
            words_per_item=2,
        )

    def memory_words(self) -> int:
        return self._nodes.memory_words()


class SlickDequeNonInvMulti(MultiQueryAggregator):
    """Multi-query SlickDeque (Non-Inv): one deque sweep per slide.

    Queries are answered in descending-range order; because the deque's
    positions increase head-to-tail, the shared sweep position ``i``
    only moves forward (Algorithm 2: "the larger ranges always
    correspond to the deque nodes closest to the head").  Answers cost
    comparisons, not aggregate operations, so the per-slide ⊕ count
    stays below 2 regardless of the number of registered queries.
    """

    def __init__(self, operator: AggregateOperator, ranges: Sequence[int]):
        super().__init__(operator, ranges)
        self._op = require_selection(operator)
        self._nodes: deque = deque()
        self._seq = 0
        self._lift = self._op.lift
        self._dominates = self._op.dominates
        self._lower = self._op.lower

    def step(self, value: Any) -> Dict[int, Any]:
        seq = self._seq + 1
        self._seq = seq
        new_partial = self._lift(value)
        nodes = self._nodes
        if nodes and nodes[0][0] <= seq - self.window:
            nodes.popleft()
        dominates = self._dominates
        while nodes and dominates(nodes[-1][1], new_partial):
            nodes.pop()
        nodes.append((seq, new_partial))

        # One forward sweep answers every range (Alg. 2 lines 20-41).
        lower = self._lower
        answers: Dict[int, Any] = {}
        iterator = iter(nodes)
        pos, val = next(iterator)
        for r in self.ranges:  # descending
            threshold = seq - r
            while pos <= threshold:
                pos, val = next(iterator)
            answers[r] = lower(val)
        return answers

    @property
    def occupancy(self) -> int:
        """Current number of deque nodes (for the adversarial bench)."""
        return len(self._nodes)

    def memory_words(self) -> int:
        return chunked_space_words(len(self._nodes), self.window)
