"""Bulk == per-tuple on sums that round at every step.

``[0.1] * n`` is the stream on which a float sum that is not a strict
left-to-right chain shows in the last bits — CPython 3.12 made builtin
``sum`` compensated, and the sum kernels used to *be* builtin ``sum``.
Every bulk path that folds a run (the stream engine, the shard fold,
the time-window engine) must still answer exactly what its per-tuple
path answers, by ``repr``.  Each case runs with the interpreter's own
``left_sum`` and with the explicit chain forced, so the 3.12 body is
exercised on older interpreters too.
"""

from __future__ import annotations

import pytest

from repro.kernels import pure
from repro.operators.registry import get_operator
from repro.service.partition import Batch
from repro.service.shard import ShardConfig, ShardState
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery, TimeWindowEngine

TENTHS = [0.1] * 64
SUM_LIKE = ["sum", "sum_of_squares", "mean", "variance"]


@pytest.fixture(
    params=[pure.left_sum, pure._sequential_sum], ids=["native", "chain"]
)
def sum_body(request, monkeypatch):
    monkeypatch.setattr(pure, "left_sum", request.param)


def engine_answers(operator_name, queries, drive):
    sink = CollectSink()
    engine = StreamEngine(queries, get_operator(operator_name), sinks=[sink])
    drive(engine)
    return sink.answers


@pytest.mark.parametrize("operator_name", SUM_LIKE)
@pytest.mark.parametrize(
    "queries",
    [(Query(16, 8),), (Query(12, 4), Query(6, 3)), (Query(5, 1),)],
    ids=["one", "pairs", "slide1"],
)
def test_engine_feed_many_answers_what_feed_answers(
    sum_body, operator_name, queries
):
    def per_tuple(engine):
        for value in TENTHS:
            engine.feed(value)

    wanted = engine_answers(operator_name, queries, per_tuple)
    for chunk in (64, 7):
        def bulk(engine):
            for start in range(0, len(TENTHS), chunk):
                engine.feed_many(TENTHS[start:start + chunk])

        got = engine_answers(operator_name, queries, bulk)
        assert repr(got) == repr(wanted), chunk


def test_the_issue_case_answers_are_the_chains(sum_body):
    """``Query(16, 8)`` over ``[0.1] * 64``: the first answers are the
    running chain's, not the correctly rounded ``0.8`` / ``1.6``."""
    answers = engine_answers(
        "sum", (Query(16, 8),), lambda engine: engine.feed_many(TENTHS)
    )
    assert [repr(answer) for _, _, answer in answers[:3]] == [
        "0.7999999999999999",
        "1.5999999999999999",
        "1.6",
    ]


def shard_pieces(batches):
    state = ShardState(
        ShardConfig(0, 1, (Query(8, 8),), get_operator("sum"))
    )
    pieces = []
    for seq, (first, count) in enumerate(batches, start=1):
        out = state.process(
            Batch(
                shard=0,
                seq=seq,
                watermark=0,
                positions=list(range(first, first + count)),
                keys=["k"] * count,
                values=[0.1] * count,
            )
        )
        pieces += out.partials
    return pieces


def test_shard_fold_equals_one_record_batches(sum_body):
    # Slices of eight: each frame's same-slice runs are one piece each,
    # the left-to-right chain over the run from the identity.
    bulk = shard_pieces([(1, 20), (21, 44)])
    runs = [(1, 8), (9, 8), (17, 4), (21, 4)] + [
        (first, 8) for first in range(25, 65, 8)
    ]
    chain = get_operator("sum").fold
    assert repr(bulk) == repr(
        [((first - 1) // 8, first, chain([0.1] * count)) for first, count in runs]
    )


def test_time_engine_feed_many_equals_feed(sum_body):
    records = [(index * 0.25, 0.1) for index in range(64)]
    queries = [TimeQuery(4.0, 2.0)]
    per_record = TimeWindowEngine(queries, get_operator("sum"))
    wanted = []
    for timestamp, value in records:
        wanted += per_record.feed(timestamp, value)
    wanted += per_record.finish()
    bulk = TimeWindowEngine(queries, get_operator("sum"))
    got = bulk.feed_many(records[:20])
    got += bulk.feed_many(records[20:]) + bulk.finish()
    assert repr(got) == repr(wanted)
