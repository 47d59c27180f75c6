"""Unit tests for the slightly-out-of-order handling (§3.1)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidQueryError, OutOfOrderError
from repro.operators.invertible import SumOperator
from repro.operators.noninvertible import MaxOperator
from repro.stream.outoforder import absorbable
from repro.stream.source import reordered


class TestReorderBuffer:
    """Position re-sequencing: ``reordered()`` on the timestamp buffer."""

    def test_in_order_passthrough(self):
        items = [(1, 10), (2, 20), (3, 30)]
        assert list(reordered(items, slack=0)) == [10, 20, 30]

    def test_reorders_within_slack(self):
        items = [(2, "b"), (1, "a"), (3, "c"), (4, "d")]
        assert list(reordered(items, slack=2)) == ["a", "b", "c", "d"]

    def test_release_is_by_position_distance_not_buffered_count(self):
        def arrivals():
            yield from [(1, "a"), (2, "b"), (9, "i")]
            raise AssertionError("pulled past the releasing arrival")

        # 9 − 2 = 7 is past both pending positions: that one arrival
        # releases the two of them, however few values are buffered.
        stream = reordered(arrivals(), slack=2)
        assert [next(stream), next(stream)] == ["a", "b"]

    def test_too_late_raises(self):
        items = [(1, "a"), (2, "b"), (3, "c"), (1, "late")]
        with pytest.raises(OutOfOrderError, match="position 1 ") as caught:
            list(reordered(items, slack=1))
        assert caught.value.position == 1
        assert caught.value.watermark == 2

    def test_drain_releases_everything(self):
        assert list(reordered([(2, "b"), (1, "a")], slack=10)) == [
            "a",
            "b",
        ]

    def test_negative_slack_rejected(self):
        with pytest.raises(InvalidQueryError):
            list(reordered([(1, "a")], slack=-1))


class TestAbsorbable:
    def test_commutative_within_open_partial(self):
        assert absorbable(SumOperator(), lateness=2,
                          open_partial_length=5)
        assert absorbable(MaxOperator(), lateness=0,
                          open_partial_length=1)

    def test_beyond_open_partial_not_absorbable(self):
        assert not absorbable(SumOperator(), lateness=5,
                              open_partial_length=5)

    def test_non_commutative_never_absorbable(self):
        from repro.operators.noninvertible import ArgMaxOperator

        op = ArgMaxOperator(abs)  # declared non-commutative (ties)
        assert not absorbable(op, lateness=0, open_partial_length=9)
