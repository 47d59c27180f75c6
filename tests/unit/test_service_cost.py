"""Deterministic cost gate: global mode pays per frame, not per record,
and its shards hold nothing between frames.

In the manner of ``test_engine_cost.py`` and ``test_wire_cost.py``:
wall-clock cost per tuple on a shared box swings by more than a
per-record function call is worth, but the number of Python function
calls a ``submit_many`` makes, and the bytes of a ring frame, do not.

* Every ``call`` event of a library frame during one global-mode
  ``AggregationService.submit_many`` is counted — transposing the
  rows, splitting them into frames and dealing those — with the shard
  folds and merges left out (the transport only collects the frames).
  The count must depend on how many frames a call cuts, never on how
  many records each frame holds.
* A global-mode int frame on the ring is its header, a first position
  and a stride, and 8 bytes per value: no position or key column.
* A global-mode shard's state pickles to the same bytes after one
  frame and after 64, and the supervisor retains a global-mode shard's
  frames only while they are unacknowledged: never more than
  ``queue_capacity`` of them.
"""

from __future__ import annotations

import os
import pickle
import sys
from types import SimpleNamespace

import pytest

import repro
from repro import AggregationService, Query, get_operator
from repro.service.shard import ShardConfig, ShardState
from repro.service.supervisor import Supervisor, WorkerHandle
from repro.service.transport import ShardChannel, shm_supported
from repro.service.transport.frame import HEADER_BYTES

QUERIES = [Query(64, 16)]
LIBRARY = os.path.dirname(repro.__file__) + os.sep
#: Library calls allowed per frame a call cuts, beyond a fixed few.
PER_FRAME = 4


def submit(records_per_frame: int, frames: int, trace=3):
    """``(library calls, shipped batches)`` of one 2-shard submit_many."""
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=records_per_frame,
    )
    shipped = []
    service._transport.ship = shipped.append
    rows = [(f"key-{i % 37}", i) for i in range(records_per_frame * frames)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        service.submit_many(rows, trace)
    finally:
        sys.setprofile(previous)
    service.abort()
    return calls, shipped


def test_submit_many_calls_grow_with_frames_not_records():
    few, shipped = submit(records_per_frame=16, frames=8)
    assert [len(batch) for batch in shipped] == [16] * 8
    # 32 times the records in the same 8 frames: not one call more.
    assert submit(records_per_frame=512, frames=8)[0] == few
    more, _ = submit(records_per_frame=16, frames=24)
    assert few < more <= few + 16 * PER_FRAME


def test_global_int_frame_is_values_plus_first_position_and_stride():
    if not shm_supported():
        pytest.skip("multiprocessing.shared_memory or fork unavailable")
    _, shipped = submit(records_per_frame=256, frames=2, trace=None)
    handle = WorkerHandle(ShardConfig(0, 2, tuple(QUERIES), get_operator("sum")))
    handle.channel = ShardChannel(0, 1 << 16)
    try:
        # The supervisor's own encode step, as it runs for a shard.
        frame = Supervisor._encode_batch(
            SimpleNamespace(transport_observer=None), handle, shipped[0]
        )
    finally:
        handle.channel.close()
        handle.channel.unlink()
    assert handle.frames_columnar == 1
    assert len(frame) == HEADER_BYTES + 16 + 8 * 256


def test_a_global_shard_holds_nothing_between_frames():
    # Ten-record frames straddle the 16-record slices: every frame
    # leaves a slice open.
    _, shipped = submit(records_per_frame=10, frames=128, trace=None)
    frames = [batch for batch in shipped if batch.shard == 0 and len(batch)]
    assert len(frames) == 64
    state = ShardState(ShardConfig(0, 2, tuple(QUERIES), get_operator("sum")))
    state.process(frames[0])
    after_one = pickle.dumps(state)
    for batch in frames[1:]:
        state.process(batch)
    assert len(pickle.dumps(state)) == len(after_one)


def test_a_global_shard_retains_only_its_unacknowledged_frames():
    if not shm_supported():
        pytest.skip("multiprocessing.shared_memory unavailable")
    capacity = 4
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        batch_size=10,
        queue_capacity=capacity,
        transport="process",
    )
    handles = service._transport.handles
    ship = service._transport.ship
    most = 0

    def watched(batch):
        nonlocal most
        ship(batch)
        most = max(most, *(len(handle.retained) for handle in handles))

    service._transport.ship = watched
    rows = [(f"key-{i % 37}", i) for i in range(2000)]  # 200 frames
    try:
        for start in range(0, len(rows), 100):
            service.submit_many(rows[start : start + 100])
        result = service.close()
    except BaseException:
        service.abort()
        raise
    assert 0 < most <= capacity
    assert [shard.batches for shard in result.stats.shards] == [100, 100]
    assert [shard.checkpoints for shard in result.stats.shards] == [0, 0]
