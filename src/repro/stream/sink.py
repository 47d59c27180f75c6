"""Answer sinks: where the engine delivers query results.

A sink receives ``(position, query, answer)`` triples — the engine's
equivalent of Algorithm 1's "send answers.getVal(q.range) as answer to
q".  Sinks compose: the engine hands each call's triples to every
registered sink through :meth:`Sink.emit_many`, one sink after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.windows.query import Query

AnswerTriple = Tuple[int, Query, Any]


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined record and the reason it could not be processed.

    Attributes:
        key: The record's routing key.
        value: The record's payload, exactly as submitted.
        position: Global 1-based stream position (``0`` when the record
            never received one, e.g. shed before routing).
        shard_id: The shard that owned (or would have owned) the record.
        error: ``repr`` of the exception that quarantined it — picklable,
            so it survives the worker→supervisor queue crossing.
    """

    key: Any
    value: Any
    position: int
    shard_id: int
    error: str


class Sink:
    """Base sink: silently discards answers (useful for benchmarks)."""

    def emit(self, position: int, query: Query, answer: Any) -> None:
        """Receive one answer."""

    def emit_many(self, triples: Sequence[AnswerTriple]) -> None:
        """Receive the answers of one engine call, in order.

        This is what the engine calls.  The default hands each triple
        to :meth:`emit`, so a sink that overrides only ``emit`` sees
        every answer.
        """
        emit = self.emit
        for position, query, answer in triples:
            emit(position, query, answer)

    def close(self) -> None:
        """Called once when the stream is exhausted."""


class CollectSink(Sink):
    """Keep every answer in memory (small streams, tests, examples)."""

    def __init__(self) -> None:
        self.answers: List[AnswerTriple] = []

    def emit(self, position: int, query: Query, answer: Any) -> None:
        self.answers.append((position, query, answer))

    def emit_many(self, triples: Sequence[AnswerTriple]) -> None:
        self.answers.extend(triples)

    def by_query(self) -> Dict[Query, List[Tuple[int, Any]]]:
        """Answers grouped per query, in arrival order."""
        grouped: Dict[Query, List[Tuple[int, Any]]] = {}
        for position, query, answer in self.answers:
            grouped.setdefault(query, []).append((position, answer))
        return grouped


class LatestSink(Sink):
    """Retain only the most recent answer per query (dashboards)."""

    def __init__(self) -> None:
        self.latest: Dict[Query, Tuple[int, Any]] = {}

    def emit(self, position: int, query: Query, answer: Any) -> None:
        self.latest[query] = (position, answer)


class CallbackSink(Sink):
    """Invoke a user callback per answer; optionally another at close."""

    def __init__(
        self,
        callback: Callable[[int, Query, Any], None],
        on_close: Optional[Callable[[], None]] = None,
    ):
        self._callback = callback
        self._on_close = on_close

    def emit(self, position: int, query: Query, answer: Any) -> None:
        self._callback(position, query, answer)

    def close(self) -> None:
        if self._on_close is not None:
            self._on_close()


class DeadLetterSink(Sink):
    """Quarantine for records the pipeline could not process.

    The sharded service routes every poison record (a value that raised
    inside the operator) and every record shed because its shard
    exceeded the restart budget here, instead of letting the failure
    kill a worker or silently vanish.  Each entry is a
    :class:`DeadLetter` carrying the record, its shard, and the
    originating exception's ``repr``.
    """

    def __init__(self) -> None:
        self.letters: List[DeadLetter] = []

    def quarantine(self, letter: DeadLetter) -> None:
        """Record one quarantined record."""
        self.letters.append(letter)

    def __len__(self) -> int:
        """Number of quarantined records."""
        return len(self.letters)

    def by_shard(self) -> Dict[int, List[DeadLetter]]:
        """Dead letters grouped by originating shard."""
        grouped: Dict[int, List[DeadLetter]] = {}
        for letter in self.letters:
            grouped.setdefault(letter.shard_id, []).append(letter)
        return grouped

    def keys(self) -> List[Any]:
        """Distinct keys with at least one dead letter, in first-seen order."""
        seen: List[Any] = []
        for letter in self.letters:
            if letter.key not in seen:
                seen.append(letter.key)
        return seen


class CountingSink(Sink):
    """Count answers without retaining them (throughput runs)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, position: int, query: Query, answer: Any) -> None:
        self.count += 1

    def emit_many(self, triples: Sequence[AnswerTriple]) -> None:
        self.count += len(triples)
