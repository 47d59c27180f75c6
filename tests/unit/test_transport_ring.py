"""Unit tests for the SPSC shared-memory ring.

The ring is the bottom layer of the zero-copy data plane: everything
above it (frame codec, shard channels, supervisor wiring) assumes the
exact read-then-commit protocol and wraparound behaviour checked here.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.errors import TornFrameError, TransportError
from repro.service.transport import shm_supported
from repro.service.transport.ring import SpscRing
from repro.service.transport.shm import ShardChannel

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture
def ring():
    ring = SpscRing(capacity=256)
    yield ring
    ring.close()
    ring.unlink()


def test_round_trip_preserves_payload_bytes(ring):
    payloads = [b"alpha", b"", b"\x00" * 40, bytes(range(64))]
    for payload in payloads:
        assert ring.try_write(payload)
        view = ring.try_read()
        assert view is not None
        assert bytes(view) == payload
        view.release()
        ring.commit()
    assert ring.try_read() is None


def test_empty_ring_reads_none(ring):
    assert ring.try_read() is None
    assert ring.occupancy() == 0
    assert ring.occupancy_ratio() == 0.0


def test_fills_and_recovers_capacity(ring):
    writes = 0
    while ring.try_write(b"x" * 20):
        writes += 1
    assert writes > 0
    # Full: no further writes until the consumer commits.
    assert not ring.try_write(b"x" * 20)
    view = ring.try_read()
    assert view is not None
    view.release()
    ring.commit()
    assert ring.try_write(b"x" * 20)


def test_wraparound_many_times_preserves_order(ring):
    # Far more traffic than capacity forces repeated wraparound; a
    # sequence number in each payload catches reordering or loss.
    inflight = []
    sent = received = 0
    while received < 500:
        payload = b"%06d" % sent
        if sent - received < 4 and ring.try_write(payload):
            inflight.append(payload)
            sent += 1
            continue
        view = ring.try_read()
        assert view is not None
        assert bytes(view) == inflight.pop(0)
        view.release()
        ring.commit()
        received += 1


def test_variable_sizes_across_wrap_boundary(ring):
    sizes = [1, 37, 80, 3, 120, 60, 11, 99] * 30
    pending = []
    for size in sizes:
        payload = bytes([size % 251]) * size
        while not ring.try_write(payload):
            view = ring.try_read()
            assert bytes(view) == pending.pop(0)
            view.release()
            ring.commit()
        pending.append(payload)
    while pending:
        view = ring.try_read()
        assert bytes(view) == pending.pop(0)
        view.release()
        ring.commit()


def test_oversized_payload_raises(ring):
    with pytest.raises(TransportError):
        ring.try_write(b"x" * (ring.max_payload + 1))


def test_read_with_pending_uncommitted_raises(ring):
    ring.try_write(b"one")
    ring.try_write(b"two")
    view = ring.try_read()
    assert bytes(view) == b"one"
    with pytest.raises(TransportError):
        ring.try_read()
    view.release()
    ring.commit()
    view = ring.try_read()
    assert bytes(view) == b"two"
    view.release()
    ring.commit()


def test_commit_required_to_free_space(ring):
    assert ring.try_write(b"y" * 100)
    occupied = ring.occupancy()
    assert occupied > 0
    view = ring.try_read()
    # Reading without committing must not release space.
    assert ring.occupancy() == occupied
    view.release()
    ring.commit()
    assert ring.occupancy() == 0


def test_capacity_floor_enforced():
    with pytest.raises(TransportError):
        SpscRing(capacity=32)


def test_pickled_ring_attaches_to_the_same_segment(ring):
    # What a ``spawn`` worker receives: a copy attached by segment name.
    copy = pickle.loads(pickle.dumps(ring))
    try:
        assert (copy.name, copy.capacity) == (ring.name, ring.capacity)
        assert ring.try_write(b"parent to worker")
        view = copy.try_read()
        assert bytes(view) == b"parent to worker"
        view.release()
        copy.commit()
        assert ring.occupancy() == 0  # the consumer's commit is shared
        assert copy.try_write(b"worker to parent")
        view = ring.try_read()
        assert bytes(view) == b"worker to parent"
        view.release()
        ring.commit()
    finally:
        copy.close()


def test_only_the_owner_unlinks_the_segment(ring):
    copy = pickle.loads(pickle.dumps(ring))
    copy.close()
    copy.unlink()  # not the creator: the segment must survive
    again = SpscRing(ring.capacity, name=ring.name)
    assert ring.try_write(b"still here")
    view = again.try_read()
    assert bytes(view) == b"still here"
    view.release()
    again.commit()
    again.close()


def test_worker_endpoint_round_trips_through_pickle():
    channel = ShardChannel(3, 1024)
    endpoint = pickle.loads(pickle.dumps(channel.endpoint()))
    try:
        assert endpoint.shard_id == 3
        assert endpoint.data_ring.name == channel.data_ring.name
        assert endpoint.result_ring.name == channel.result_ring.name
        assert channel.data_ring.try_write(b"frame")
        view = endpoint.data_ring.try_read()
        assert bytes(view) == b"frame"
        view.release()
        endpoint.data_ring.commit()
    finally:
        endpoint.close()
        channel.close()
        channel.unlink()


def test_corrupt_length_prefix_raises_torn_frame(ring):
    assert ring.try_write(b"payload")
    # Overwrite the record's length prefix with an impossible length
    # (simulates a torn write straddling the prefix).  The first record
    # starts at data offset 0, so its prefix is bytes 0..4 of _data.
    ring._data[0:4] = b"\xf0\xff\xff\x0f"
    with pytest.raises(TornFrameError):
        ring.try_read()


def test_occupancy_ratio_is_monotone(ring):
    ratios = []
    for _ in range(4):
        assert ring.try_write(b"z" * 30)
        ratios.append(ring.occupancy_ratio())
    assert ratios == sorted(ratios)
    assert 0.0 < ratios[-1] <= 1.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_two_process_cursors_never_read_backwards_or_torn():
    # A forked producer publishes as fast as it can while this process
    # consumes and, between reads, polls the published-byte count.  The
    # consumer owns ``tail``, so between its own commits any drop in
    # ``occupancy()`` (or a negative one) is a backwards read of the
    # producer's ``head`` — the transient zero a non-atomic cursor
    # store exposes, which try_read reports as a TornFrameError.
    records = 200_000
    ring = SpscRing(capacity=1 << 14)
    pid = os.fork()
    if pid == 0:  # producer
        status = 1
        try:
            for index in range(records):
                payload = b"%07d" % index
                while not ring.try_write(payload):
                    pass
            status = 0
        finally:
            os._exit(status)
    try:
        deadline = time.monotonic() + 120
        received = 0
        while received < records:
            assert time.monotonic() < deadline, f"stalled at {received}"
            published = 0
            for _ in range(8):
                seen = ring.occupancy()
                assert seen >= published, (received, published, seen)
                published = seen
            view = ring.try_read()  # raises TornFrameError on a torn head
            if view is None:
                continue
            assert bytes(view) == b"%07d" % received
            view.release()
            ring.commit()
            received += 1
        _, status = os.waitpid(pid, 0)
        pid = 0
        assert status == 0
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        ring.close()
        ring.unlink()
