"""Reference answers by naive recalculation over the sorted stream.

The one oracle every answer path in this suite is held to: each window
is folded from scratch with nothing but the operator's ``identity``,
``lift``, ⊕ (``combine``) and ``lower``.  Nothing here imports
``repro``; queries are read by attribute (``range_size``/``slide``,
``range_seconds``/``slide_seconds``, ``name``).  Answers come in the
engines' delivery order: ascending window end, then descending range,
ascending slide and name.
"""

from __future__ import annotations

import math


def fold(operator, values):
    """``lower(identity ⊕ lift(v₁) ⊕ … ⊕ lift(vₖ))``, left to right."""
    accumulated = operator.identity
    for value in values:
        accumulated = operator.combine(accumulated, operator.lift(value))
    return operator.lower(accumulated)


def count_windows(operator, queries, values, start=0):
    """``(position, query, answer)`` for each count window ending after
    position ``start``: every multiple of a query's slide, over the last
    ``range_size`` values (fewer while the stream is shorter)."""
    ordered = sorted(set(queries), key=lambda q: (-q.range_size, q.slide, q.name))
    return [
        (end, query, fold(operator, values[max(0, end - query.range_size):end]))
        for end in range(start + 1, len(values) + 1)
        for query in ordered
        if end % query.slide == 0
    ]


def per_key_windows(operator, queries, records):
    """``{key: count_windows(...)}`` over each key's own values, for the
    keys with at least one answer."""
    values_by_key = {}
    for key, value in records:
        values_by_key.setdefault(key, []).append(value)
    answers = [(key, count_windows(operator, queries, values))
               for key, values in values_by_key.items()]
    return {key: rows for key, rows in answers if rows}


def time_windows(operator, queries, records, origin=0.0, resolution=1e-3, held=False):
    """``(end, query, answer)`` for every time window through the slice
    of the newest of the ``(timestamp, value)`` records.

    Records are sorted by timestamp, ties in the order given.  Slices
    are the greatest common divisor ``g`` of every range and slide in
    ``resolution`` ticks; slice ``k`` holds ``[origin + k·g, origin +
    (k+1)·g)``.  Every slice from the origin through the newest record's
    closes, empty ones too (an empty stream closes none), and a query
    answers at each slice end that is a multiple of its slide.
    ``held=True`` adds to each answer the number of records in its window.
    """
    ticks = {
        q: (round(q.range_seconds / resolution), round(q.slide_seconds / resolution))
        for q in queries
    }
    unit = math.gcd(*[t for pair in ticks.values() for t in pair])
    width = unit * resolution
    shape = {q: (r // unit, s // unit) for q, (r, s) in ticks.items()}
    by_slice = {}
    for timestamp, value in sorted(records, key=lambda record: record[0]):
        by_slice.setdefault(int((timestamp - origin) // width), []).append(value)
    answers = []
    for end in range(1, max(by_slice, default=-1) + 2):
        for query in sorted(shape, key=lambda q: (-shape[q][0], shape[q][1], q.name)):
            slices, slide = shape[query]
            if end % slide == 0:
                window = [
                    value
                    for index in range(end - slices, end)
                    for value in by_slice.get(index, ())
                ]
                answer = (origin + end * width, query, fold(operator, window))
                answers.append(answer + (len(window),) if held else answer)
    return answers
