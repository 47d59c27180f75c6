"""Stream sources: pull-based value suppliers for the engine.

Sources are plain iterables of values with an optional extraction step,
so dataset events, raw numbers, and generator pipelines all plug into
the same engine.  The model is pull-based ("classic streaming scenario
when all new partial aggregates are processed ... one-by-one as they
become available", Section 3.1) — no rate control, no buffering.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import OutOfOrderError


class Source:
    """An iterable of stream values with an optional value extractor.

    Args:
        items: Any iterable (list, generator, dataset stream).
        extract: Maps each item to the aggregated value; identity when
            omitted.  For :class:`~repro.stream.records.SensorEvent`
            streams this is typically ``lambda e: e.reading(0)``.
        limit: Optional cap on the number of items consumed.
    """

    def __init__(
        self,
        items: Iterable[Any],
        extract: Optional[Callable[[Any], Any]] = None,
        limit: Optional[int] = None,
    ):
        self._items = items
        self._extract = extract
        self._limit = limit

    def __iter__(self) -> Iterator[Any]:
        count = 0
        for item in self._items:
            if self._limit is not None and count >= self._limit:
                return
            count += 1
            yield item if self._extract is None else self._extract(item)


def from_values(values: Iterable[Any], limit: Optional[int] = None) -> Source:
    """Source over raw values."""
    return Source(values, limit=limit)


def from_events(
    events: Iterable[Any], reading: int = 0, limit: Optional[int] = None
) -> Source:
    """Source extracting one energy reading from sensor events."""
    return Source(
        events, extract=lambda event: event.reading(reading), limit=limit
    )


def reordered(
    positioned_items: Iterable[Any], slack: int
) -> Iterator[Any]:
    """Re-sequence a slightly out-of-order ``(position, value)`` stream.

    The §3.1 arrival-order assumption as a source adapter.  Positions
    are event time with integer stamps, so this is a
    :class:`~repro.stream.outoforder.TimestampReorderBuffer` with
    ``slack`` as its lateness: a value is released once a position more
    than ``slack`` ahead of it has arrived (by position distance,
    ``newest − slack``, not by how many values are buffered) and the
    end of the stream releases the rest.  A tuple more than ``slack``
    positions late raises :class:`~repro.errors.OutOfOrderError`; a
    negative or non-finite ``slack``
    :class:`~repro.errors.InvalidQueryError`.  Plug between a network
    source and an engine::

        engine.run(reordered(network_tuples, slack=16))
    """
    from repro.stream.outoforder import TimestampReorderBuffer

    def too_late(position: int, value: Any) -> None:
        raise OutOfOrderError(
            f"tuple at position {position} arrived more than "
            f"slack={slack} behind the newest position {buffer.high}",
            position=position,
            watermark=buffer.watermark,
        )

    buffer = TimestampReorderBuffer(slack, "drop", too_late)
    for position, value in positioned_items:
        for _, released in buffer.push(position, value):
            yield released
    for _, released in buffer.drain():
        yield released
