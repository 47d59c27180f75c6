"""Property-based tests: the storage substrate behaves like its model."""

from __future__ import annotations

from collections import deque as pydeque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.chunked_deque import ChunkedDeque
from repro.structures.circular_buffer import CircularBuffer

#: 0 = append, 1 = popleft, 2 = pop.
operations = st.lists(
    st.integers(min_value=0, max_value=2), min_size=1, max_size=300
)


@given(ops=operations, chunk_size=st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_chunked_deque_matches_collections_deque(ops, chunk_size):
    subject = ChunkedDeque(chunk_size=chunk_size)
    model: pydeque = pydeque()
    for step, op in enumerate(ops):
        if op == 0 or not model:
            subject.append(step)
            model.append(step)
        elif op == 1:
            assert subject.popleft() == model.popleft()
        else:
            assert subject.pop() == model.pop()
        assert len(subject) == len(model)
        if model:
            assert subject[0] == model[0]
            assert subject[-1] == model[-1]
    assert list(subject) == list(model)


@given(ops=operations, chunk_size=st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_chunked_deque_allocation_tight(ops, chunk_size):
    """Allocated slots never exceed the items plus two end chunks."""
    subject = ChunkedDeque(chunk_size=chunk_size)
    for step, op in enumerate(ops):
        if op == 0 or not subject:
            subject.append(step)
        elif op == 1:
            subject.popleft()
        else:
            subject.pop()
        slack = subject.allocated_slots() - len(subject)
        assert 0 <= slack <= 2 * chunk_size


@given(
    values=st.lists(st.integers(), min_size=1, max_size=120),
    capacity=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_circular_buffer_retains_last_capacity_values(values, capacity):
    buf = CircularBuffer(capacity, fill=None)
    for value in values:
        expired = buf.push(value)
        # What expires is either the fill or the value pushed exactly
        # `capacity` pushes ago.
        pushed = buf.total_written
        if pushed > capacity:
            assert expired == values[pushed - capacity - 1]
        else:
            assert expired is None
    retained = values[-capacity:]
    assert list(buf) == retained
    for offset in range(1, min(capacity, len(values)) + 1):
        assert buf.at_offset(offset) == values[-offset]
