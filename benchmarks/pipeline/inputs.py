"""Seeded input generators for the pipeline benchmark.

Everything here is drawn from ``random.Random(seed)`` and nothing
else: no ``repro.datasets``, no numpy, no wall clock.  The same seed
gives the same records on every commit, and the system under test
only ever sees the generated records.

Every stream is *periodic*: a base block of :data:`PERIOD` records is
generated once and the workloads replay it cyclically (event
timestamps advance by one period length per cycle).  That keeps input
generation under half a second for streams of tens of millions of
tuples, and lets the oracle answer any window from one period of
prefix data (see ``oracle.py``).  The periods are far longer than any
window, so the aggregators never see the repetition inside a window.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import List, Sequence, Tuple

#: Records in one base block of the count-based streams.
PERIOD = 1 << 18

#: The keyed stream: 64 keys, Zipf(s = 1.0), ints in [-105, 105].
NUM_KEYS = 64
ZIPF_S = 1.0
KEYS = tuple(f"k{index:02d}" for index in range(NUM_KEYS))
VALUE_LOW, VALUE_HIGH = -105, 105

#: The event-time stream: 100 records per second of event time, 10%
#: of the records displaced by less than 0.9 x the 0.25 s lateness.
EVENT_RATE = 100
EVENT_LATENESS = 0.25
EVENT_DISPLACED_SHARE = 0.10
EVENT_MAX_DELAY = 0.9 * EVENT_LATENESS
#: 320 000 records = 3 200 s of event time: a whole number of
#: 512-record batches, of 1 s slices and of the queries' 2 s cycle.
EVENT_PERIOD = 512 * 625
EVENT_PERIOD_SECONDS = EVENT_PERIOD / EVENT_RATE


def _rng(seed: int, stream: str) -> random.Random:
    """One independent generator per named stream of one seed."""
    return random.Random(f"{seed}:{stream}")


def zipf_cum_weights(count: int, s: float = ZIPF_S) -> List[float]:
    """Cumulative Zipf weights ``sum(1 / rank**s)`` for ``count`` ranks."""
    return list(accumulate(1.0 / (rank ** s) for rank in range(1, count + 1)))


def keyed_stream(seed: int, count: int = PERIOD) -> Tuple[List[str], List[int]]:
    """One base block of the keyed stream: ``(keys, values)`` columns."""
    keys = _rng(seed, "keys").choices(
        KEYS, cum_weights=zipf_cum_weights(NUM_KEYS), k=count
    )
    values = _rng(seed, "values").choices(
        range(VALUE_LOW, VALUE_HIGH + 1), k=count
    )
    return keys, values


def spiky_floats(seed: int, count: int = PERIOD // 2) -> List[float]:
    """Autocorrelated positive floats with rare upward spikes.

    An AR(1) walk around 50 (coefficient 0.98) with a 1-in-500 spike
    of 2-5x: long runs where new values do not dominate old ones, then
    a spike that empties SlickDeque (Non-Inv)'s deque at once — the
    input shape that makes per-tuple latency uneven (paper Fig. 14).
    """
    rng = _rng(seed, "floats")
    gauss, uniform, rand = rng.gauss, rng.uniform, rng.random
    level = 0.0
    out: List[float] = []
    append = out.append
    for _ in range(count):
        level = 0.98 * level + gauss(0.0, 1.0)
        value = abs(50.0 + level) + 1e-3
        if rand() < 0.002:
            value *= uniform(2.0, 5.0)
        append(value)
    return out


def event_timestamp(index: int) -> float:
    """Event time of the ``index``-th record of a period (mid-tick).

    Mid-tick placement keeps every timestamp 5 ms away from a slice
    boundary, so float rounding can never move a record across one.
    """
    return (index + 0.5) / EVENT_RATE


def disordered_events(
    seed: int, count: int = EVENT_PERIOD
) -> Tuple[List[float], List[int]]:
    """One period of the disordered event stream, in *arrival* order.

    Returns ``(timestamps, values)``; timestamps are relative to the
    period start.  A displaced record keeps its timestamp but arrives
    ``delay`` seconds of event time later, ``delay`` below
    :data:`EVENT_MAX_DELAY`, so it is never behind the watermark.
    Records in the last :data:`EVENT_LATENESS` seconds of the period
    are not displaced, so no record crosses the period boundary and
    periods concatenate cleanly.
    """
    rng = _rng(seed, "events")
    values = _rng(seed, "event-values").choices(
        range(VALUE_LOW, VALUE_HIGH + 1), k=count
    )
    guard = event_timestamp(count - 1) - EVENT_LATENESS
    arrival: List[Tuple[float, int]] = []
    for index in range(count):
        timestamp = event_timestamp(index)
        key = timestamp
        if timestamp < guard and rng.random() < EVENT_DISPLACED_SHARE:
            key += rng.uniform(0.0, EVENT_MAX_DELAY)
        arrival.append((key, index))
    arrival.sort()
    order = [index for _, index in arrival]
    return (
        [event_timestamp(index) for index in order],
        [values[index] for index in order],
    )


def chunked(column: Sequence, size: int) -> List[Sequence]:
    """Cut ``column`` into consecutive ``size``-long pieces."""
    return [column[start : start + size] for start in range(0, len(column), size)]
