"""Unit tests for the stream engine and the Cutty pipeline."""

from __future__ import annotations

import random

import pytest

from repro.operators.registry import get_operator
from repro.stream.engine import CuttyPipeline, StreamEngine
from repro.stream.sink import CollectSink, CountingSink
from repro.windows.query import Query
from tests import oracle
from tests.conftest import int_stream


class TestStreamEngine:
    STREAM = int_stream(160, seed=81)
    QUERIES = [Query(6, 2), Query(8, 4), Query(5, 2)]

    @pytest.mark.parametrize("operator_name", ["sum", "max", "mean", "range"])
    def test_answers_match_brute_force(self, operator_name):
        sink = CollectSink()
        engine = StreamEngine(
            self.QUERIES, get_operator(operator_name), sinks=[sink]
        )
        engine.run(self.STREAM)
        assert sink.answers == oracle.count_windows(
            get_operator(operator_name), self.QUERIES, self.STREAM
        )

    def test_counters(self):
        engine = StreamEngine(
            [Query(4, 2)], get_operator("sum"), sinks=[CountingSink()]
        )
        engine.run(self.STREAM)
        assert engine.tuples_consumed == len(self.STREAM)
        assert engine.answers_emitted == len(self.STREAM) // 2

    @pytest.mark.parametrize(
        "queries", [[Query(3, 1)], [Query(4, 2), Query(3, 1)], [Query(4, 2)]]
    )
    def test_refused_value_leaves_engine_as_it_was(self, queries):
        # ``0 + "x"`` raises inside the partial stage.  It used to do so
        # after the position had been bumped, so every later answer was
        # reported one position late and "x" counted as consumed.
        sink = CollectSink()
        engine = StreamEngine(queries, get_operator("sum"), sinks=[sink])
        engine.feed(1)
        engine.feed(2)
        with pytest.raises(TypeError):
            engine.feed("x")
        assert engine.tuples_consumed == 2
        for value in (3, 4, 5):
            engine.feed(value)
        assert engine.tuples_consumed == 5
        assert sink.answers == oracle.count_windows(
            get_operator("sum"), queries, [1, 2, 3, 4, 5]
        )

    def test_slide_one_selection_refusal_leaves_engine_as_it_was(self):
        # At slide 1 a selection operator's partial stage is ``lift``
        # alone, so ``cos("x")`` now raises in the first ``dominates``
        # test of the final stage — still before anything is stored.
        queries = [Query(4, 1), Query(2, 1)]
        sink = CollectSink()
        engine = StreamEngine(queries, get_operator("argmax_cos"), sinks=[sink])
        # Falling cosines: the deque keeps every node, so the head
        # expires (and is popped) on the very feed that raises.
        stream = [index / 10 for index in range(1, 11)]
        with pytest.raises(TypeError):  # the empty deque tests it too
            engine.feed("x")
        for value in stream[:6]:
            engine.feed(value)
        with pytest.raises(TypeError):
            engine.feed("x")
        assert engine.tuples_consumed == 6
        for value in stream[6:]:
            engine.feed(value)
        assert sink.answers == oracle.count_windows(
            get_operator("argmax_cos"), queries, stream
        )

    def test_refused_batch_leaves_shared_engine_as_it_was(self):
        # The bulk partial stage stores its state once, after the last
        # segment folded: a batch it refuses is not half consumed.
        queries = [Query(4, 2), Query(6, 3)]
        sink = CollectSink()
        engine = StreamEngine(queries, get_operator("sum"), sinks=[sink])
        engine.feed_many([1, 2, 3])
        with pytest.raises(TypeError):
            engine.feed_many([4, 5, 6, "x", 7])
        assert engine.tuples_consumed == 3
        engine.feed_many([4, 5, 6, 7])
        assert sink.answers == oracle.count_windows(
            get_operator("sum"), queries, [1, 2, 3, 4, 5, 6, 7]
        )

    @pytest.mark.parametrize("bulk", [False, True], ids=["feed", "feed_many"])
    def test_float_product_survives_an_underflowed_partial(self, bulk):
        # 1.8e-237 * 1.2e-245 underflows to 0.0, a partial stored as a
        # nonzero factor: retiring it used to divide by zero.
        queries = [Query(4, 2)]
        stream = [1.8e-237, 1.2e-245] + [1.0] * 6
        sink = CollectSink()
        engine = StreamEngine(queries, get_operator("product"), sinks=[sink])
        if bulk:
            engine.feed_many(stream)
        else:
            for value in stream:
                engine.feed(value)
        assert sink.answers == oracle.count_windows(
            get_operator("product"), queries, stream
        )

    def test_multiple_sinks_all_receive(self):
        first, second = CountingSink(), CountingSink()
        engine = StreamEngine(
            [Query(4, 2)], get_operator("sum"), sinks=[first]
        )
        engine.add_sink(second)
        engine.run(self.STREAM)
        assert first.count == second.count > 0

    def test_panes_technique(self):
        sink = CollectSink()
        engine = StreamEngine(
            self.QUERIES,
            get_operator("max"),
            technique="panes",
            sinks=[sink],
        )
        engine.run(self.STREAM)
        assert sink.answers == oracle.count_windows(
            get_operator("max"), self.QUERIES, self.STREAM
        )


class TestCuttyPipeline:
    STREAM = int_stream(120, seed=82)

    @pytest.mark.parametrize("operator_name", ["sum", "max", "mean"])
    @pytest.mark.parametrize(
        "range_size,slide", [(6, 2), (7, 3), (3, 5), (5, 1), (4, 4)]
    )
    def test_matches_brute_force(self, operator_name, range_size, slide):
        query, op = Query(range_size, slide), get_operator(operator_name)
        want = oracle.count_windows(op, [query], self.STREAM)
        got = CuttyPipeline(query, op).run(self.STREAM)
        assert got == [(position, answer) for position, _, answer in want]

    def test_punctuations_counted(self):
        query = Query(7, 3)
        pipeline = CuttyPipeline(query, get_operator("sum"))
        pipeline.run(self.STREAM)
        # One punctuation per window start: one per slide.
        assert pipeline.punctuations == len(self.STREAM) // 3

    def test_range_below_slide_uses_open_partial_only(self):
        query, op = Query(2, 5), get_operator("sum")
        got = CuttyPipeline(query, op).run(self.STREAM)
        want = oracle.count_windows(op, [query], self.STREAM)
        assert got == [(position, answer) for position, _, answer in want]


@pytest.mark.parametrize(
    "range_size,slide", [(4, 4), (6, 2), (9, 3), (7, 3), (3, 5)]
)
def test_cutty_float_sum_matches_brute_force(range_size, slide):
    # When r % s == 0 the answer is (r/s - 1) closed partials combined
    # with the open one, not r/s closed partials: the grouping differs
    # from the oracle's left fold, so floats agree to rounding.
    rng = random.Random(83)
    stream = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3)
              for _ in range(300)]
    query = Query(range_size, slide)
    got = CuttyPipeline(query, get_operator("sum")).run(stream)
    expected = oracle.count_windows(get_operator("sum"), [query], stream)
    assert [t for t, _ in got] == [t for t, _, _ in expected]
    for (_, answer), (_, _, wanted) in zip(got, expected):
        assert answer == pytest.approx(wanted, rel=1e-9, abs=1e-9)
