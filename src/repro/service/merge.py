"""Cross-shard combination of per-shard results.

Global mode rests on one algebraic fact: a slice's whole-stream partial
is the ``combine`` of the partials of disjoint runs of its tuples,
taken in stream order — associativity alone, so order-sensitive
operators (``first``, ``last``, ``argmax_cos``, ...) merge exactly as
commutative ones do.  The shards ship one *piece* per same-slice run of
each frame, keyed by slice and first stream position, and the merger
combines a slice's pieces in position order.  The final aggregation
additionally needs a SlickDeque processing path (invertible,
selection-type, or a composition such as Range);
:func:`check_mergeable` enforces that up front so an operator without
one is rejected at service construction, not detected as wrong answers.

:class:`GlobalMerger` and :class:`EventTimeMerger` track each shard's
slice watermark on one shared frontier, finalise a slice once every
shard has passed it, and drive the count or the time final aggregation
with the merged partial.  They and :class:`PerKeyCollator` are
idempotent under replay — a recovered worker re-emits outputs it
produced before dying, and the merger must not double-count them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.multiquery import Answer, SharedSlickDeque
from repro.errors import MergeCapabilityError
from repro.operators.algebraic import ComposedOperator
from repro.operators.base import AggregateOperator
from repro.service.shard import ShardOutput
from repro.service.slices import SliceClock
from repro.stream.watermark import TimeSliceClock, Watermark
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query
from repro.windows.timebased import (
    DEFAULT_RESOLUTION,
    TimeAnswer,
    TimeFinalStage,
    TimeQuery,
)


def check_mergeable(operator: AggregateOperator) -> None:
    """Reject operators merged partials cannot drive.

    Raises:
        MergeCapabilityError: when the operator has no SlickDeque
            final-aggregation path (neither invertible, selection-type,
            nor a composition — e.g. ``bit_and``); run it in per-key
            mode's engines instead, which refuse it too.
    """
    # Exactly what the shared engine's dispatch refuses.
    composed = isinstance(operator, ComposedOperator)
    if not (operator.invertible or operator.selects or composed):
        raise MergeCapabilityError(
            f"operator {operator.name!r} has no shared SlickDeque "
            "processing path (neither invertible, selection-type, nor "
            "an algebraic composition), so merged partials cannot "
            "drive the global final aggregation; SlickDeque targets "
            "distributive and algebraic aggregations (paper Section 3.1)"
        )


class _SliceFrontier:
    """The min-watermark merge frontier over per-shard slice pieces.

    A slice is finalised once the minimum watermark of the live shards
    passes it: every shard has then shipped (and acknowledged) all of
    its frames with records in the slice, so the pieces on hand are
    complete.  A slice no piece reached is the operator identity; the
    pieces of one slice combine in order of their first stream
    position, which is stream order, and a replayed piece — same slice,
    same first position — replaces its identical original.  Watermarks
    count closed slices whichever clock the service runs on, so count
    and event time share this frontier; a subclass supplies only
    :meth:`_finalise`, what a merged slice partial turns into.
    """

    def __init__(self, operator: AggregateOperator, num_shards: int):
        check_mergeable(operator)
        self.operator = operator
        # One monotone Watermark per shard: replayed outputs from a
        # recovered worker present stale values, which ``advance``
        # ignores by construction.
        self._watermarks = [Watermark(0) for _ in range(num_shards)]
        #: Pieces of unmerged slices: slice -> {first position: piece}.
        self._pending: Dict[int, Dict[int, Any]] = {}
        self._next_slice = 0
        #: Shards declared failed: excluded from the watermark frontier.
        self._failed: set = set()
        #: Global answers emitted so far.
        self.answers_emitted = 0

    @property
    def merged_slices(self) -> int:
        """Number of slices finalised so far."""
        return self._next_slice

    @property
    def degraded(self) -> bool:
        """Whether any shard has failed (answers since then are partial).

        Once a shard fails, slices finalise from the surviving shards'
        partials only: every answer emitted from that point on reflects
        the stream *minus* the failed shard's un-merged records and
        must be treated as stale/degraded by the caller.
        """
        return bool(self._failed)

    def mark_failed(self, shard_id: int) -> List[Any]:
        """Stop waiting on a failed shard's watermark.

        The shard's already-absorbed pieces still participate (they
        are exact for the records it acknowledged), but slices are now
        finalised without waiting for it — otherwise one dead shard
        would wedge the global frontier forever.  Returns any answers
        released by the frontier advancing.
        """
        self._failed.add(shard_id)
        return self._drain()

    def on_output(self, output: ShardOutput) -> List[Any]:
        """Absorb one shard output; return newly-released answers."""
        for index, first, piece in output.partials:
            if index >= self._next_slice:  # replays of merged slices
                self._pending.setdefault(index, {})[first] = piece
        self._watermarks[output.shard_id].advance(output.watermark)
        return self._drain()

    def _finalise(self, index: int, merged: Any) -> List[Any]:
        """Answers released by slice ``index``'s merged partial."""
        raise NotImplementedError

    def _drain(self) -> List[Any]:
        answers: List[Any] = []
        active = [
            watermark.value
            for shard_id, watermark in enumerate(self._watermarks)
            if shard_id not in self._failed
        ]
        frontier = min(active) if active else self._next_slice
        operator = self.operator
        while self._next_slice < frontier:
            pieces = self._pending.pop(self._next_slice, {})
            merged = operator.identity
            for first in sorted(pieces):
                merged = operator.combine(merged, pieces[first])
            answers.extend(self._finalise(self._next_slice, merged))
            self._next_slice += 1
        self.answers_emitted += len(answers)
        return answers


class GlobalMerger(_SliceFrontier):
    """Combine count-slice pieces into global engine answers.

    Each merged slice partial drives the shared SlickDeque final
    aggregation at the slice's end position — the position the
    single-process engine would report answers at.

    Args:
        queries: The service's ACQ set.
        operator: The aggregate operator (see :func:`check_mergeable`).
        technique: Partial-aggregation technique of the shared plan.
        num_shards: Number of shards feeding this merger.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        operator: AggregateOperator,
        technique: str,
        num_shards: int,
    ):
        super().__init__(operator, num_shards)
        self.plan = build_shared_plan(queries, technique)
        self.clock = SliceClock(self.plan)
        self._final = SharedSlickDeque(
            queries, operator, technique, plan=self.plan
        )

    def _finalise(self, index: int, merged: Any) -> List[Answer]:
        return self._final.feed_partial(
            merged, self.clock.end_position(index)
        )


class EventTimeMerger(_SliceFrontier):
    """Combine *time-slice* pieces into time-query answers.

    Each merged slice partial (the operator identity for a slice no
    shard saw a record in) goes through the same
    :class:`~repro.windows.timebased.TimeFinalStage` the single-node
    :class:`~repro.windows.timebased.TimeWindowEngine` closes its
    slices into, so answers are the engine's
    ``(window_end_timestamp, time_query, answer)`` triples.  The
    per-shard watermarks count closed *time* slices — the service
    derives them from its bounded-lateness event watermark, and the
    shards echo them from their frames.
    """

    def __init__(
        self,
        queries: Sequence[TimeQuery],
        operator: AggregateOperator,
        technique: str,
        num_shards: int,
        origin: float = 0.0,
        resolution: float = DEFAULT_RESOLUTION,
    ):
        super().__init__(operator, num_shards)
        self._final = TimeFinalStage(
            queries, operator, origin, resolution, technique
        )
        self.queries = self._final.queries
        self.origin = origin
        self.slice_seconds = self._final.slice_seconds
        self.clock = TimeSliceClock(self.slice_seconds, origin)

    def _finalise(self, index: int, merged: Any) -> List[TimeAnswer]:
        return self._final.close_slice(merged)


class PerKeyCollator:
    """Collect per-key answers, deduplicating replayed outputs.

    Per-key answers are deterministic — a key's records are processed
    in arrival order by exactly one shard — so a replayed answer is
    byte-identical to the original and the first occurrence wins.
    """

    def __init__(self) -> None:
        self._seen: set = set()
        #: Answers per key, in emission order:
        #: ``key -> [(position, query, answer), ...]``.
        self.answers: Dict[Any, List[Tuple[int, Query, Any]]] = {}

    def on_output(
        self, output: ShardOutput
    ) -> List[Tuple[Any, int, Query, Any]]:
        """Absorb one shard output; return its previously-unseen answers."""
        fresh: List[Tuple[Any, int, Query, Any]] = []
        for key, position, query, answer in output.key_answers:
            marker = (key, position, query)
            if marker in self._seen:
                continue
            self._seen.add(marker)
            self.answers.setdefault(key, []).append(
                (position, query, answer)
            )
            fresh.append((key, position, query, answer))
        return fresh
