"""Unit tests for the thread-safe :class:`ServiceGateway` seam."""

from __future__ import annotations

import threading

import pytest

from repro import AggregationService, Query, get_operator
from repro.errors import ProtocolError, ServiceError
from repro.net.protocol import (
    FrameType,
    RecordColumns,
    encode_frame,
    try_decode_frame_traced,
)
from repro.service.gateway import ServiceGateway

QUERIES = [Query(8, 4), Query(6, 2)]


def make_gateway(**kwargs) -> ServiceGateway:
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=8,
        **kwargs,
    )
    return ServiceGateway(service)


def test_submit_and_poll_pass_through():
    gateway = make_gateway()
    assert gateway.submit("a", 1) == 1
    assert gateway.submit_many([("a", 2), ("b", 3), ("a", 4)]) == 3
    gateway.submit_many([("b", v) for v in range(5, 45)])
    answers = gateway.poll()
    assert answers, "inline transport should release answers"
    result = gateway.close()
    reference = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=8,
    )
    reference.submit_many(
        [("a", 1), ("a", 2), ("b", 3), ("a", 4)]
        + [("b", v) for v in range(5, 45)]
    )
    # close() reports the complete answer set; poll() saw a prefix.
    assert result.answers == reference.close().answers
    assert result.answers[: len(answers)] == answers


def test_snapshot_counts_without_closing():
    gateway = make_gateway()
    gateway.submit_many([("a", 1), ("b", 2)])
    gateway.submit("c", 3)
    snapshot = gateway.snapshot()
    assert snapshot["records_submitted"] == 3
    assert snapshot["batches_submitted"] == 2
    assert snapshot["num_shards"] == 2
    assert snapshot["mode"] == "global"
    assert snapshot["closed"] is False
    assert not gateway.closed
    gateway.close()
    assert gateway.snapshot()["closed"] is True


def test_close_is_idempotent_and_caches_the_result():
    gateway = make_gateway()
    gateway.submit_many([("a", v) for v in range(10)])
    first = gateway.close()
    second = gateway.close()
    assert first is second


def test_submit_after_close_raises():
    gateway = make_gateway()
    gateway.close()
    with pytest.raises(ServiceError, match="closed"):
        gateway.submit("a", 1)
    with pytest.raises(ServiceError, match="closed"):
        gateway.poll()


def test_abort_marks_closed_without_result():
    gateway = make_gateway()
    gateway.abort()
    assert gateway.closed
    with pytest.raises(ServiceError, match="aborted"):
        gateway.close()


def test_concurrent_submitters_interleave_batches_atomically():
    """Threads race whole batches; every record lands exactly once."""
    gateway = make_gateway()
    per_thread = 40
    threads = [
        threading.Thread(
            target=lambda name=name: gateway.submit_many(
                [(name, 1) for _ in range(per_thread)]
            ),
        )
        for name in ("a", "b", "c", "d")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = gateway.snapshot()
    assert snapshot["records_submitted"] == 4 * per_thread
    result = gateway.close()
    assert result.stats.records_submitted == 4 * per_thread
    assert result.stats.records_processed == 4 * per_thread


# -- the wire's column view as gateway input ------------------------


def as_columns(rows) -> RecordColumns:
    """``rows`` the way the server hands them over: decoded off a frame."""
    frame_type = (
        FrameType.SUBMIT_BATCH
        if len(rows[0]) == 2
        else FrameType.SUBMIT_EVENT_BATCH
    )
    decoded, _ = try_decode_frame_traced(encode_frame(frame_type, rows))
    assert type(decoded.payload) is RecordColumns
    return decoded.payload


def test_sized_input_is_counted_not_copied():
    class Spy:
        """Stands in for the service: keeps what it was handed."""

        def submit_many(self, records, trace_id):
            self.got = records

        submit_events = submit_many

    gateway = ServiceGateway(Spy())
    rows = [("a", 1), ("b", 2)]
    view = as_columns(rows)
    assert gateway.submit_many(view) == 2
    assert gateway._service.got is view
    assert gateway.submit_many(rows) == 2
    assert gateway._service.got is rows
    events = as_columns([("a", 1.0, 1), ("b", 2.0, 2)])
    assert gateway.submit_events(events) == 2
    assert gateway._service.got is events
    # An unsized iterable is still materialised, once.
    assert gateway.submit_many(iter(rows)) == 2
    assert gateway._service.got == rows


def test_column_view_ingests_like_its_rows_and_carries_its_trace():
    rows = [(f"k{i % 5}", i) for i in range(64)]
    by_rows, by_view = make_gateway(), make_gateway()
    by_rows.submit_many(rows[:40], 7)
    by_rows.submit_many(rows[40:], 9)
    by_view.submit_many(as_columns(rows[:40]), 7)
    by_view.submit_many(as_columns(rows[40:]), 9)
    traced = by_view.poll_traced()
    assert traced == by_rows.poll_traced()
    assert {trace for _, trace in traced} == {7, 9}
    assert by_view.snapshot()["records_submitted"] == 64
    assert by_view.close().answers == by_rows.close().answers


def test_partial_batch_rule_holds_for_a_column_view():
    # Per-key mode hashes keys.  The wire never produces a key that
    # cannot be routed (decoded keys are scalars), so build the view by
    # hand: record 41's key does not hash.  Every record before it is
    # ingested under the call's trace, none after it, exactly as for a
    # row list.
    codes = [0] * 41 + [1] + [0] * 3
    values = list(range(45))
    gateway = make_gateway(mode="per_key")
    service = gateway._service
    view = RecordColumns(codes, ["k", ["unhashable"]], values)
    with pytest.raises(TypeError):
        gateway.submit_many(view, 5)
    assert service._router.position == 41
    assert list(service._trace_intervals) == [(1, 41, 5)]
    assert gateway.snapshot()["records_submitted"] == 0  # refused call
    gateway.submit_many([("k", v) for v in values[41:]], 6)
    reference = make_gateway(mode="per_key")
    reference.submit_many([("k", v) for v in values])
    assert gateway.close().per_key == reference.close().per_key


def test_global_mode_takes_a_column_view_all_or_nothing():
    # No key is hashed in global mode; a key code outside the table is
    # what a column view can get wrong, and it refuses the whole call.
    gateway = make_gateway()
    service = gateway._service
    view = RecordColumns([0] * 41 + [7] + [0] * 3, ["k"], list(range(45)))
    with pytest.raises(ProtocolError):
        gateway.submit_many(view, 5)
    assert service._router.position == 0
    assert not service._trace_intervals
    assert gateway.snapshot()["records_submitted"] == 0
