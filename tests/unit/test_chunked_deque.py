"""Unit tests for the chunked-node deque (paper §4.2 storage)."""

from __future__ import annotations

from collections import deque as pydeque

import pytest

from repro.errors import WindowStateError
from repro.structures.chunked_deque import ChunkedDeque, optimal_chunk_size


def test_fifo_round_trip():
    d = ChunkedDeque(chunk_size=4)
    for value in range(10):
        d.append(value)
    assert [d.popleft() for _ in range(10)] == list(range(10))
    assert len(d) == 0


def test_lifo_round_trip():
    d = ChunkedDeque(chunk_size=4)
    for value in range(10):
        d.append(value)
    assert [d.pop() for _ in range(10)] == list(range(9, -1, -1))


def test_front_and_back():
    d = ChunkedDeque(chunk_size=2)
    d.append("a")
    assert d[0] == "a" and d[-1] == "a"
    d.append("b")
    assert d[0] == "a" and d[-1] == "b"


def test_empty_access_raises():
    d = ChunkedDeque()
    with pytest.raises(WindowStateError):
        d.popleft()
    with pytest.raises(WindowStateError):
        d.pop()
    with pytest.raises(WindowStateError):
        _ = d[0]
    with pytest.raises(WindowStateError):
        _ = d[-1]


def test_extend_clear_and_supported_indices():
    d = ChunkedDeque(chunk_size=3)
    d.extend(range(7))
    assert list(d) == list(range(7)) and d.chunk_count == 3
    with pytest.raises(IndexError):
        _ = d[1]
    d.clear()
    assert len(d) == 0 and d.chunk_count == 0 and d.memory_words() == 0


def test_iteration_order_front_to_back():
    d = ChunkedDeque(chunk_size=3)
    for value in range(8):
        d.append(value)
    d.popleft()
    d.popleft()
    assert list(d) == list(range(2, 8))


def test_mixed_operations_match_reference_deque():
    import random

    rng = random.Random(5)
    d = ChunkedDeque(chunk_size=3)
    ref: pydeque = pydeque()
    for step in range(2000):
        action = rng.random()
        if action < 0.5 or not ref:
            d.append(step)
            ref.append(step)
        elif action < 0.75:
            assert d.popleft() == ref.popleft()
        else:
            assert d.pop() == ref.pop()
        assert len(d) == len(ref)
        if ref:
            assert d[0] == ref[0]
            assert d[-1] == ref[-1]
    assert list(d) == list(ref)


def test_chunk_count_tracks_allocation():
    d = ChunkedDeque(chunk_size=4)
    assert d.chunk_count == 0
    d.append(1)
    assert d.chunk_count == 1
    for value in range(4):
        d.append(value)
    assert d.chunk_count == 2
    while d:
        d.popleft()
    assert d.chunk_count == 0


def test_memory_words_formula():
    d = ChunkedDeque(chunk_size=4, words_per_item=2)
    for value in range(5):  # 2 chunks allocated
        d.append(value)
    assert d.allocated_slots() == 8
    assert d.memory_words() == 8 * 2 + 2 * 2


def test_empty_deque_costs_nothing():
    d = ChunkedDeque(chunk_size=4)
    assert d.memory_words() == 0


def test_invalid_parameters():
    with pytest.raises(WindowStateError):
        ChunkedDeque(chunk_size=0)
    with pytest.raises(WindowStateError):
        ChunkedDeque(words_per_item=0)


def test_bool_protocol():
    d = ChunkedDeque()
    assert not d
    d.append(1)
    assert d


class TestOptimalChunkSize:
    def test_sqrt_rule(self):
        assert optimal_chunk_size(1024) == 32
        assert optimal_chunk_size(100) == 10

    def test_small_windows(self):
        assert optimal_chunk_size(0) == 1
        assert optimal_chunk_size(1) == 1
        assert optimal_chunk_size(3) == 1
