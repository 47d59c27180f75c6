"""An ndarray batch answers exactly what its ``tolist()`` answers.

The bulk paths accept any sequence, ndarrays included.  Their answers
must not depend on the container: no fixed-width numpy scalar may leak
into an answer (its arithmetic wraps at 64 bits and its ``repr`` is not
a Python number's), and no float fold may be regrouped.  Answers are
compared by ``(type, repr)``, so ``np.int64(3)`` is not ``3`` and
``-0.0`` is not ``0.0``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import make_slickdeque
from repro.operators.registry import get_operator
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

np = pytest.importorskip("numpy")

OPERATORS = ["sum", "sum_of_squares", "count", "max", "min"]
#: Uneven chunks, so batches straddle slide and window boundaries.
CHUNKS = (1, 37, 64, 5, 193)


def _ints():
    rng = random.Random(41)
    # Squares near 2**63: a 64-bit sum of squares wraps within a window.
    return [rng.randint(-3_037_000_000, 3_037_000_000) for _ in range(300)]


def _floats():
    rng = random.Random(42)
    # Mixed magnitudes: any regrouped float sum shows in the last bits.
    return [
        rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 8)
        for _ in range(300)
    ]


def _typed(answers):
    return [(type(answer), repr(answer)) for answer in answers]


def _chunks(values):
    start = 0
    for size in CHUNKS:
        yield values[start:start + size]
        start += size


def _slickdeque_answers(operator_name, batches):
    deque = make_slickdeque(get_operator(operator_name), 64)
    answers = []
    for batch in batches:
        deque.push_many(batch)
        answers.append(deque.query())
    return answers


def _engine_answers(operator_name, batches):
    sink = CollectSink()
    engine = StreamEngine(
        (Query(64, 16), Query(20, 5)), get_operator(operator_name), sinks=[sink]
    )
    for batch in batches:
        engine.feed_many(batch)
    return [answer for _, _, answer in sink.answers]


@pytest.mark.parametrize(
    "answers", [_slickdeque_answers, _engine_answers], ids=["slickdeque", "engine"]
)
@pytest.mark.parametrize("data", [_ints, _floats], ids=["int", "float"])
@pytest.mark.parametrize("operator_name", OPERATORS)
def test_ndarray_batches_answer_what_their_lists_answer(
    operator_name, data, answers
):
    column = np.array(data())
    wanted = answers(operator_name, _chunks(column.tolist()))
    got = answers(operator_name, _chunks(column))
    assert _typed(got) == _typed(wanted)


def test_int64_sum_of_squares_stays_a_python_int():
    deque = make_slickdeque(get_operator("sum_of_squares"), 1024)
    deque.push_many(np.array(range(1, 301)))
    assert repr(deque.query()) == "9045050"
    deque.push_many(np.array([3_037_000_000] * 300))
    assert repr(deque.query()) == "2767010700000009045050"
