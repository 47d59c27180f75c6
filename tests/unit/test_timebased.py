"""Unit tests for time-based windows."""

from __future__ import annotations

import pytest

from repro.errors import InvalidQueryError, OutOfOrderError
from repro.operators.registry import get_operator
from repro.windows.query import Query
from repro.windows.timebased import (
    TimeQuery,
    TimeWindowEngine,
    slice_duration,
)
from tests import oracle


class TestTimeQuery:
    def test_default_name(self):
        assert TimeQuery(10.0, 2.0).name == "q10s/2s"

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            TimeQuery(0.0, 1.0)
        with pytest.raises(InvalidQueryError):
            TimeQuery(1.0, -1.0)

    def test_to_count_query(self):
        query = TimeQuery(10.0, 2.0)
        count = query.to_count_query(slice_seconds=2.0)
        assert count == Query(5, 1, name="q10s/2s")

    def test_to_count_query_misaligned_rejected(self):
        with pytest.raises(InvalidQueryError, match="not multiples"):
            TimeQuery(10.0, 3.0).to_count_query(slice_seconds=4.0)

    def test_sub_resolution_duration_rejected(self):
        with pytest.raises(InvalidQueryError, match="resolution"):
            TimeQuery(0.0005, 0.0005).to_count_query(0.0005)


class TestSliceDuration:
    def test_gcd_of_durations(self):
        queries = [TimeQuery(6.0, 2.0), TimeQuery(8.0, 4.0)]
        assert slice_duration(queries) == pytest.approx(2.0)

    def test_fractional_seconds_exact(self):
        # 0.1 s is not exactly representable in binary; the integer
        # tick conversion must still produce an exact 0.1 s slice.
        queries = [TimeQuery(0.6, 0.2), TimeQuery(0.5, 0.1)]
        assert slice_duration(queries) == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(InvalidQueryError):
            slice_duration([])


class TestTimeSlicer:
    """Slice assignment, read off a tumbling one-slice sum."""

    def engine(self, origin=0.0):
        return TimeWindowEngine(
            [TimeQuery(1.0, 1.0)], get_operator("sum"), origin=origin
        )

    @staticmethod
    def slices(answers):
        return [(end, answer) for end, _, answer in answers]

    def test_slices_by_timestamp(self):
        engine = self.engine()
        closed = []
        for timestamp, value in [(0.1, 1), (0.9, 10), (2.5, 100)]:
            closed.extend(engine.feed(timestamp, value))
        closed.extend(engine.finish())
        assert self.slices(closed) == [(1.0, 11), (2.0, 0), (3.0, 100)]

    def test_boundary_record_belongs_to_the_next_slice(self):
        engine = self.engine()
        closed = engine.feed_many([(0.5, 1), (1.0, 10), (1.5, 100)])
        closed += engine.finish()
        assert self.slices(closed) == [(1.0, 1), (2.0, 110)]

    def test_empty_slices_emitted(self):
        closed = self.engine().feed(3.5, 7)
        assert self.slices(closed) == [(1.0, 0), (2.0, 0), (3.0, 0)]

    def test_out_of_order_rejected(self):
        engine = self.engine()
        engine.feed(5.0, 1)
        with pytest.raises(OutOfOrderError) as caught:
            engine.feed(4.0, 2)
        assert caught.value.position == 4.0
        assert caught.value.watermark == 5.0

    def test_before_origin_rejected(self):
        engine = self.engine(origin=10.0)
        with pytest.raises(OutOfOrderError) as caught:
            engine.feed(9.0, 1)
        assert caught.value.watermark == 10.0


class TestTimeWindowEngine:
    def test_matches_brute_force(self):
        stream = [
            (0.2, 5), (0.7, 1), (1.1, 9), (2.0, 4), (2.9, 2),
            (3.3, 8), (5.2, 7), (5.9, 3), (7.5, 6), (9.9, 5),
        ]
        queries = [TimeQuery(4.0, 2.0), TimeQuery(6.0, 3.0)]
        engine = TimeWindowEngine(queries, get_operator("max"))
        assert list(engine.run(stream)) == oracle.time_windows(
            get_operator("max"), queries, stream
        )

    def test_sum_with_empty_slices(self):
        stream = [(0.5, 10), (4.5, 20)]  # a long silent gap
        engine = TimeWindowEngine(
            [TimeQuery(2.0, 1.0)], get_operator("sum")
        )
        answers = {round(t, 6): a for t, _, a in engine.run(stream)}
        assert answers[1.0] == 10
        assert answers[2.0] == 10  # window [0, 2): only the first tuple
        assert answers[3.0] == 0  # empty window
        assert answers[4.0] == 0
        assert answers[5.0] == 20

    def test_slice_is_gcd(self):
        engine = TimeWindowEngine(
            [TimeQuery(6.0, 2.0), TimeQuery(9.0, 3.0)],
            get_operator("sum"),
        )
        assert engine.slice_seconds == pytest.approx(1.0)

    def test_mean_lowering(self):
        stream = [(0.1, 2.0), (0.6, 4.0), (1.4, 9.0)]
        engine = TimeWindowEngine(
            [TimeQuery(1.0, 1.0)], get_operator("mean")
        )
        answers = [a for _, _, a in engine.run(stream)]
        assert answers[0] == pytest.approx(3.0)
        assert answers[1] == pytest.approx(9.0)


class TestIngressChecks:
    """Bad input raises before any state changes, in both feed paths."""

    def engine(self):
        return TimeWindowEngine([TimeQuery(2.0, 1.0)], get_operator("sum"))

    def answers_of(self, stream):
        return list(self.engine().run(stream))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_feed_rejects_a_nonfinite_timestamp_and_carries_on(self, bad):
        engine = self.engine()
        got = engine.feed(0.5, 1)
        with pytest.raises(OutOfOrderError, match="finite"):
            engine.feed(bad, 100)
        got += engine.feed(1.5, 2)
        got += engine.finish()
        assert got == self.answers_of([(0.5, 1), (1.5, 2)])
        assert got[0][2] == 1  # not 101: the NaN-stamped value is out

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_feed_many_rejects_a_nonfinite_timestamp_mid_batch(self, bad):
        engine = self.engine()
        with pytest.raises(OutOfOrderError, match="finite"):
            engine.feed_many([(0.5, 1), (bad, 100), (1.5, 2)])
        # Nothing of the refused call was folded, not even its prefix.
        got = engine.feed_many([(0.5, 1), (1.5, 2)]) + engine.finish()
        assert got == self.answers_of([(0.5, 1), (1.5, 2)])

    def test_feed_many_checks_order_against_the_call_and_the_engine(self):
        engine = self.engine()
        with pytest.raises(OutOfOrderError) as caught:
            engine.feed_many([(0.5, 1), (1.5, 2), (1.4, 3)])
        assert (caught.value.position, caught.value.watermark) == (1.4, 1.5)
        engine.feed_many([(0.5, 1), (1.5, 2)])
        with pytest.raises(OutOfOrderError):
            engine.feed_many([(1.4, 3)])
        with pytest.raises(OutOfOrderError) as caught:
            self.engine().feed_many([(-0.5, 1)])  # before the origin
        assert (caught.value.position, caught.value.watermark) == (-0.5, 0.0)

    def test_feed_leaves_the_engine_as_it_was_on_a_refused_value(self):
        engine = self.engine()
        got = engine.feed(0.5, 1)
        with pytest.raises(TypeError):
            engine.feed(0.7, "x")  # same slice
        with pytest.raises(TypeError):
            engine.feed(3.5, "x")  # would have closed three slices
        got += engine.feed(1.5, 2) + engine.finish()
        assert got == self.answers_of([(0.5, 1), (1.5, 2)])

    def test_feed_many_leaves_the_engine_as_it_was_on_a_refused_value(self):
        engine = self.engine()
        batch = [(0.2, 1), (1.2, 3), (2.2, "x"), (2.7, 4), (3.2, 5)]
        with pytest.raises(TypeError):
            engine.feed_many(batch)  # the poison is in the third run
        # All or nothing: no run was folded and no slice closed, so the
        # clean prefix still releases every answer it is due.
        got = engine.feed_many(batch[:2])
        assert [answer for _, _, answer in got] == [1]
        got += engine.feed_many([(2.2, 7), (3.2, 5)]) + engine.finish()
        assert got == self.answers_of(
            [(0.2, 1), (1.2, 3), (2.2, 7), (3.2, 5)]
        )
