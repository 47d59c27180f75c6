"""Slightly-out-of-order arrival handling (paper Section 3.1).

"The arriving tuples have to be in-order or slightly out-of-order.  As
long as the out-of-order tuples are within the same partial
aggregation, the final result will not be affected.  If, however, some
tuples fall outside of their partial, inconsistencies in the final
result may arise."

:class:`TimestampReorderBuffer` implements exactly that contract on
one timeline: records may arrive up to ``lateness`` behind the newest
one seen — seconds of event time, or stream positions, which are event
time with integer stamps (:func:`repro.stream.source.reordered`) — and
are re-sequenced before reaching the partial aggregator; anything
later is handled by the late policy.  Commutative operators
additionally allow absorbing late tuples *within* the open partial
without re-sequencing, which :func:`absorbable` checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import LateRecordError, OutOfOrderError
from repro.operators.base import AggregateOperator
from repro.stream.watermark import BoundedLatenessWatermark

#: How a :class:`TimestampReorderBuffer` treats a record behind the
#: watermark: ``raise`` surfaces :class:`LateRecordError` to the caller,
#: ``drop`` diverts it to the ``on_late`` handler (a dead-letter sink),
#: ``side_output`` counts it (and still calls ``on_late`` when given)
#: without ever folding it into a closed slice.
LATE_POLICIES = ("raise", "drop", "side_output")

_INF = math.inf
_isfinite = math.isfinite


def _reject_nonfinite(timestamp: float, watermark: float) -> None:
    """Raise for a NaN/±inf event timestamp before it touches state.

    A NaN compares ``False`` against both the high mark and the
    watermark, so it would be insort-ed into the pending buffer and —
    because ``buffer[0][0] < watermark`` is also ``False`` for NaN —
    block the release scan forever; ``+inf`` would pin the watermark at
    infinity and mark every later record late.  Neither is a *late*
    record, so this is not subject to the late policy: it is invalid
    input and always raises.
    """
    raise OutOfOrderError(
        f"event timestamp must be finite, got {timestamp!r}",
        position=timestamp,
        watermark=watermark,
    )


class TimestampReorderBuffer:
    """Re-sequence a bounded-lateness *event-time* stream.

    A record may arrive up to ``lateness`` seconds behind the newest
    timestamp seen and still be released in timestamp order.
    Internally a :class:`BoundedLatenessWatermark` tracks
    ``max timestamp − lateness``; records are released strictly below
    the watermark (a record *at* the watermark could still be preceded
    by an equal-timestamp arrival), and an incoming record strictly
    behind the watermark is *late* and handled per ``policy`` (one of
    :data:`LATE_POLICIES`).

    Ties on timestamp release in arrival order (a monotone sequence
    number breaks ordering ties), so the output order is deterministic.
    """

    def __init__(
        self,
        lateness: float,
        policy: str = "raise",
        on_late: Optional[Callable[[float, Any], None]] = None,
    ):
        if policy not in LATE_POLICIES:
            raise OutOfOrderError(
                f"unknown late-record policy {policy!r}; "
                f"expected one of {LATE_POLICIES}"
            )
        self.policy = policy
        self._on_late = on_late
        # Validation (finite, >= 0) lives in the watermark type; the
        # buffer then tracks high/value as plain floats because the hot
        # path cannot afford a property access per record.
        self._lateness = BoundedLatenessWatermark(lateness).lateness
        self._high = float("-inf")
        self._value = float("-inf")
        # Pending records kept *sorted* by (timestamp, arrival seq).
        # For the dominant near-in-order workload an arrival lands at
        # the tail (insort degenerates to append) and releases peel a
        # short prefix, so every structural operation stays in C; a
        # heap would pay a Python-level sift on every single pop.
        self._buffer: List[Tuple[float, int, Any]] = []
        self._seq = 0
        #: Count of records rejected as late (never folded downstream).
        self.late_records = 0

    @property
    def lateness(self) -> float:
        return self._lateness

    @property
    def watermark(self) -> float:
        """Current event-time watermark (``-inf`` before any record)."""
        return self._value

    @property
    def high(self) -> float:
        """Newest event timestamp observed (``-inf`` before any record)."""
        return self._high

    def __len__(self) -> int:
        return len(self._buffer)

    def push_into(
        self, timestamp: float, item: Any, out: List[Tuple[float, Any]]
    ) -> None:
        """Accept one record; append every record this arrival releases.

        The allocation-free twin of :meth:`push` for per-record hot
        loops: released ``(timestamp, item)`` pairs are appended to
        ``out`` instead of travelling through a generator.  Released
        records come out in ``(timestamp, arrival)`` order and are
        final: their slices may close as soon as the caller observes
        the new :attr:`watermark`.

        Raises:
            OutOfOrderError: for a non-finite (NaN/±inf) timestamp,
                regardless of the late policy; the buffer is untouched.
        """
        if not _isfinite(timestamp):
            _reject_nonfinite(timestamp, self._value)
        buffer = self._buffer
        if timestamp > self._high:
            self._high = timestamp
            value = timestamp - self._lateness
            if value > self._value:
                self._value = value
            buffer.append((timestamp, self._seq, item))
        elif timestamp < self._value:
            self.late_records += 1
            if self.policy == "raise":
                raise LateRecordError(timestamp, self._value, self._lateness)
            if self._on_late is not None:
                self._on_late(timestamp, item)
            return
        else:
            insort(buffer, (timestamp, self._seq, item))
        self._seq += 1
        self._release_into(out)

    def _release_into(self, out: List[Tuple[float, Any]]) -> None:
        """Move every record strictly behind the watermark to ``out``."""
        buffer = self._buffer
        value = self._value
        if buffer and buffer[0][0] < value:
            # ``(value,)`` sorts before every ``(value, seq, item)``
            # entry, so this cut is exactly "timestamp < value".
            cut = bisect_left(buffer, (value,))
            out.extend([(ts, item) for ts, _, item in buffer[:cut]])
            del buffer[:cut]

    def push_many_into(
        self,
        records: Iterable[Tuple[float, Any]],
        out: List[Tuple[float, Any]],
    ) -> None:
        """Accept a batch of ``(timestamp, item)`` records at once.

        The watermark advances at *batch* granularity — the periodic
        watermark of stream-processing practice, where per-record
        generation is a pathological special case.  An in-order arrival
        (``timestamp > high``, never late by construction) is a bare
        list append; the release scan runs once at the end of the
        batch.  Compared with per-record :meth:`push_into` this is
        never stricter: a mid-batch record is judged against the
        watermark as of the *previous* batch, so disorder that
        per-record pushing would reject at the bound's edge may still
        be accepted here, but release order and the bounded-lateness
        guarantee are identical.

        When a mid-batch record raises (late under the ``raise``
        policy, or a non-finite timestamp), records accepted before it
        stay accepted and the end-of-batch release still runs: ``out``
        then holds every record the partial batch released, and the
        caller MUST process it even though the call raised — those
        records have left the buffer and will not be re-released.
        """
        buffer = self._buffer
        high = self._high
        seq = self._seq
        try:
            for timestamp, item in records:
                if timestamp > high:
                    # NaN and -inf never win this comparison and fall
                    # through to push_into's finiteness check; +inf is
                    # the one non-finite value that must be caught here
                    # before it pins the high mark at infinity.
                    if timestamp == _INF:
                        _reject_nonfinite(timestamp, self._value)
                    high = timestamp
                    buffer.append((timestamp, seq, item))
                    seq += 1
                else:
                    self._high = high
                    self._seq = seq
                    self.push_into(timestamp, item, out)
                    high = self._high
                    seq = self._seq
        finally:
            self._high = high
            self._seq = seq
            advanced = high - self._lateness
            if advanced > self._value:
                self._value = advanced
            self._release_into(out)

    def push(self, timestamp: float, item: Any) -> Iterator[Tuple[float, Any]]:
        """Accept one record; yield every record this arrival releases.

        A late record under the ``raise`` policy raises at the call
        itself (the releases are computed eagerly); iterate the result
        for the re-sequenced records.
        """
        out: List[Tuple[float, Any]] = []
        self.push_into(timestamp, item, out)
        return iter(out)

    def drain(self) -> Iterator[Tuple[float, Any]]:
        """Release everything still buffered (end of stream)."""
        buffer = self._buffer
        self._buffer = []
        for timestamp, _, item in buffer:
            yield (timestamp, item)


def absorbable(
    operator: AggregateOperator, lateness: int, open_partial_length: int
) -> bool:
    """Whether a late tuple can be folded into the open partial.

    This is the paper's "within the same partial aggregation" case: the
    tuple belongs somewhere inside the partial currently accumulating.
    Folding it at the current position is only order-safe for
    commutative operators.
    """
    return operator.commutative and lateness < open_partial_length
