"""Unit tests for SlickDeque (Non-Inv) — Algorithm 2."""

from __future__ import annotations

import pytest

from repro.baselines.recalc import RecalcAggregator, RecalcMultiAggregator
from repro.core.slickdeque_noninv import (
    ChunkedSlickDequeNonInv,
    SlickDequeNonInv,
    SlickDequeNonInvMulti,
    chunked_space_words,
)
from repro.datasets.adversarial import worst_case_slide_ops
from repro.errors import InvalidOperatorError, WindowStateError
from repro.operators.instrumented import CountingOperator, SlideOpRecorder
from repro.operators.invertible import SumOperator
from repro.operators.noninvertible import MaxOperator, MinOperator
from tests.conftest import int_stream


def test_paper_example_3():
    """Figure 9: Q1 = Max over 3, Q2 = Max over 5, slide 1."""
    stream = [6, 5, 0, 1, 3, 4, 2, 7]
    agg = SlickDequeNonInvMulti(MaxOperator(), [3, 5])
    answers = agg.run(stream)
    q1 = [a[3] for a in answers]
    q2 = [a[5] for a in answers]
    assert q1 == [6, 6, 6, 5, 3, 4, 4, 7]
    assert q2 == [6, 6, 6, 6, 6, 5, 4, 7]


def test_rejects_invertible_only_operator():
    with pytest.raises(InvalidOperatorError):
        SlickDequeNonInv(SumOperator(), 8)
    with pytest.raises(InvalidOperatorError):
        SlickDequeNonInvMulti(SumOperator(), [4])


def test_matches_recalc_max_and_min():
    stream = int_stream(300, seed=61)
    for op_class in (MaxOperator, MinOperator):
        for window in (1, 2, 9, 32):
            assert (
                SlickDequeNonInv(op_class(), window).run(stream)
                == RecalcAggregator(op_class(), window).run(stream)
            )


def test_chunked_variant_identical():
    stream = int_stream(300, seed=62)
    for window in (1, 5, 17):
        fast = SlickDequeNonInv(MaxOperator(), window).run(stream)
        chunked = ChunkedSlickDequeNonInv(
            MaxOperator(), window
        ).run(stream)
        assert fast == chunked
        # The bulk path (suffix chain, clear/extend) on chunked storage.
        for size in (4, 23):
            bulk = ChunkedSlickDequeNonInv(MaxOperator(), window)
            for start in range(0, len(stream), size):
                bulk.push_many(stream[start:start + size])
                end = min(start + size, len(stream))
                assert bulk.query() == fast[end - 1]


def test_multi_matches_recalc():
    stream = int_stream(200, seed=63)
    ranges = [1, 3, 4, 9]
    got = SlickDequeNonInvMulti(MaxOperator(), ranges).run(stream)
    expected = RecalcMultiAggregator(MaxOperator(), ranges).run(stream)
    assert got == expected


def test_amortized_below_two_ops():
    """Section 4.1: "always less than 2 operations" amortized."""
    op = CountingOperator(MaxOperator())
    agg = SlickDequeNonInv(op, 64)
    rec = SlideOpRecorder(op)
    for value in int_stream(5000, seed=64):
        agg.step(value)
        rec.mark_slide()
    assert rec.amortized_ops < 2.0


def test_query_costs_zero_ops():
    op = CountingOperator(MaxOperator())
    agg = SlickDequeNonInv(op, 16)
    for value in int_stream(50, seed=65):
        agg.push(value)
    op.reset()
    agg.query()
    assert op.ops == 0


def test_worst_case_slide_is_n_ops():
    """Section 4.1: the adversarial n-operation slide."""
    window = 32
    op = CountingOperator(MaxOperator())
    agg = SlickDequeNonInv(op, window)
    rec = SlideOpRecorder(op)
    for value in worst_case_slide_ops(window):
        agg.step(value)
        rec.mark_slide()
    assert rec.per_slide[-1] >= window - 1


def test_ascending_keeps_one_node():
    agg = SlickDequeNonInv(MaxOperator(), 16)
    for value in range(100):
        agg.push(value)
        assert agg.occupancy == 1


def test_descending_fills_deque():
    agg = SlickDequeNonInv(MaxOperator(), 16)
    for value in range(100, 0, -1):
        agg.push(value)
    assert agg.occupancy == 16


def test_ties_collapse_to_one_node():
    agg = SlickDequeNonInv(MaxOperator(), 16)
    for _ in range(50):
        agg.push(7)
        assert agg.occupancy == 1


def test_query_before_any_push_raises():
    agg = SlickDequeNonInv(MaxOperator(), 4)
    with pytest.raises(WindowStateError):
        agg.query()


def test_multi_sweep_is_comparison_only():
    """Answering n queries adds zero aggregate operations."""
    n = 16
    op = CountingOperator(MaxOperator())
    single = SlickDequeNonInv(CountingOperator(MaxOperator()), n)
    multi = SlickDequeNonInvMulti(op, list(range(1, n + 1)))
    stream = int_stream(500, seed=66)
    for value in stream:
        multi.step(value)
    single_op = single.operator
    for value in stream:
        single.step(value)
    assert op.ops == single_op.ops  # queries added nothing


class TestChunkedSpaceWords:
    def test_empty(self):
        assert chunked_space_words(0, 64) == 0

    def test_matches_formula_shape(self):
        # n nodes in sqrt(n)-sized chunks: ~2n + O(sqrt n).
        window = 1024
        words = chunked_space_words(window, window)
        assert 2 * window <= words <= 2 * window + 8 * 32 + 8

    def test_small_deque_small_footprint(self):
        assert chunked_space_words(1, 1 << 20) < 5000
