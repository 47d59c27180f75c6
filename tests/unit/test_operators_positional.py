"""Unit tests for the First/Last positional operators."""

from __future__ import annotations

import pytest

from repro.baselines.recalc import RecalcAggregator
from repro.core.facade import make_slickdeque
from repro.operators.base import AggregateOperator
from repro.operators.positional import FirstOperator, LastOperator
from repro.registry import available_algorithms, get_algorithm
from tests.conftest import int_stream


class TestSemantics:
    def test_first_fold(self):
        assert FirstOperator().fold([7, 1, 9]) == 7

    def test_last_fold(self):
        assert LastOperator().fold([7, 1, 9]) == 9

    def test_identity_laws(self):
        for op in (FirstOperator(), LastOperator()):
            assert op.combine(op.identity, 5) == 5
            assert op.combine(5, op.identity) == 5

    def test_associativity_exhaustive(self):
        for op in (FirstOperator(), LastOperator()):
            for a in (1, 2):
                for b in (1, 3):
                    for c in (2, 4):
                        assert op.combine(op.combine(a, b), c) == (
                            op.combine(a, op.combine(b, c))
                        )

    def test_non_commutative(self):
        assert FirstOperator().combine(1, 2) != (
            FirstOperator().combine(2, 1)
        )

    def test_dominates_matches_combine(self):
        base = AggregateOperator.dominates
        for op in (FirstOperator(), LastOperator()):
            for incumbent in (1, 2):
                for challenger in (1, 3):
                    if op.name == "first" and incumbent == challenger:
                        # Equal is not identical (0.0 / -0.0, 1 / True):
                        # the older value stays the window's first.
                        assert not op.dominates(incumbent, challenger)
                        continue
                    assert op.dominates(incumbent, challenger) == (
                        base(op, incumbent, challenger)
                    ), op.name


class TestSliding:
    def test_first_is_the_oldest_in_window(self):
        window = make_slickdeque(FirstOperator(), 3)
        stream = [10, 20, 30, 40, 50]
        assert window.run(stream) == [10, 10, 10, 20, 30]

    @pytest.mark.parametrize(
        "stream, expected",
        [
            ([0.0, -0.0, 5.0], ["0.0", "0.0", "0.0"]),
            ([1, True, 2], ["1", "1", "1"]),
        ],
    )
    def test_first_keeps_the_older_of_two_equal_values(
        self, stream, expected
    ):
        from repro.stream.engine import StreamEngine
        from repro.stream.sink import CollectSink
        from repro.windows.query import Query

        sink = CollectSink()
        engine = StreamEngine([Query(3, 1)], FirstOperator(), sinks=[sink])
        for value in stream:
            engine.feed(value)
        assert [repr(answer) for _, _, answer in sink.answers] == expected

    def test_last_is_the_newest(self):
        window = make_slickdeque(LastOperator(), 3)
        stream = [10, 20, 30, 40]
        assert window.run(stream) == stream

    def test_extreme_deque_occupancies(self):
        first = make_slickdeque(FirstOperator(), 16)
        last = make_slickdeque(LastOperator(), 16)
        for value in range(100):
            first.push(value)
            last.push(value)
        assert first.occupancy == 16  # §4.1 worst space, every input
        assert last.occupancy == 1  # §4.1 best case, every input

    @pytest.mark.parametrize("op_class", [FirstOperator, LastOperator])
    def test_all_algorithms_agree(self, op_class):
        stream = int_stream(200, seed=83)
        expected = RecalcAggregator(op_class(), 7).run(stream)
        for name in available_algorithms():
            spec = get_algorithm(name)
            got = spec.single(op_class(), 7).run(stream)
            assert got == expected, name
