"""Deterministic cost gate: Python-level calls per tuple on the wire path.

In the manner of ``test_engine_cost.py``: wall-clock per-tuple cost on a
shared box swings by more than a per-record function call is worth; the
number of Python function calls one frame makes does not swing at all.
One 256-row ``SUBMIT_BATCH`` frame is taken through everything the
server does between the socket and the frames it ships — decode
(``try_decode_frame_traced``), the parse half, ``ServiceGateway``,
``AggregationService.submit_many`` and the global-mode frame splitter
behind ``Router.put_many`` — and every ``call`` event of a library
frame is counted, except inside ``Router._deal``, which frames and
deals the records held so far: its calls depend on how the stream
filled frames, not on the wire, and ``test_service_cost.py`` holds
them to a few per frame.  A
256-value packed ``SUBMIT_COLUMN`` frame is held to the same ceiling:
its parse half hands ``submit_many`` the same rows.

The reply direction is gated the same way: a 48-answer ``ANSWERS``
frame — one reply of the benchmark's closed loop — is encoded and
decoded (``encode_answer_columns``, ``encode_frame``,
``try_decode_frame_traced``, ``decode_answers``) in a number of calls
that does not grow with the answer count.

With the tagged body the decoder alone makes more than four calls per
tuple (``_decode_at`` and ``_need`` per row, key and value); with record
columns the whole path is a fixed handful per *frame*.  A per-record
function call creeping back in — a row loop in the parse half, a
``list(records)`` turned into a comprehension — fails this without a
clock.
"""

from __future__ import annotations

import os
import sys

import repro
from repro import AggregationService, Query, get_operator
from repro.net.protocol import (
    SUBMIT_SHAPES,
    AnswerColumns,
    FrameType,
    RecordColumns,
    build_submit_column,
    decode_answers,
    encode_answer_columns,
    encode_answers,
    encode_frame,
    try_decode_frame_traced,
)
from repro.service.gateway import ServiceGateway
from repro.service.partition import Router

from tests.unit.test_net_protocol import tagged_frame

ROWS = 256
#: Calls per tuple allowed outside ``Router._deal``.
CEILING = 0.1
#: Only frames of library code count: a ``gc`` callback some other
#: test's plugin registered must not leak into the total.
LIBRARY = os.path.dirname(repro.__file__) + os.sep
DEAL = Router._deal.__code__


def calls_outside_the_dealer(frame: bytes) -> int:
    """Library ``call`` events from socket bytes to routed records."""
    service = AggregationService(
        [Query(64, 16)],
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=ROWS,
    )
    shipped = []
    # Shard folds and merges are the service's cost, not the wire's.
    service._transport.ship = shipped.append
    gateway = ServiceGateway(service)
    calls = 0
    dealing = 0  # depth inside Router._deal

    def count(frame, event, arg):
        nonlocal calls, dealing
        if frame.f_code is DEAL:
            dealing += {"call": 1, "return": -1}.get(event, 0)
        elif (
            event == "call"
            and not dealing
            and frame.f_code.co_filename.startswith(LIBRARY)
        ):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        decoded, _ = try_decode_frame_traced(frame)
        shape = SUBMIT_SHAPES[decoded.frame_type]
        args, count_ = shape.parse(decoded.payload, decoded.event_time)
        accepted = getattr(gateway, shape.verb)(*args, decoded.trace_id)
    finally:
        sys.setprofile(previous)
    assert accepted == count_ == ROWS
    assert sum(map(len, shipped)) + len(service._router._held_values) == ROWS
    gateway.abort()
    return calls


def rows():
    return [(f"key-{i % 37}", i * 7 - 300) for i in range(ROWS)]


def test_columnar_frame_makes_no_per_record_python_call():
    frame = encode_frame(FrameType.SUBMIT_BATCH, rows(), trace_id=3)
    decoded, _ = try_decode_frame_traced(frame)
    assert type(decoded.payload) is RecordColumns
    assert calls_outside_the_dealer(frame) <= CEILING * ROWS


def test_packed_column_frame_makes_no_per_record_python_call():
    # SUBMIT_COLUMN rides the same row path: its parse half pairs the
    # packed column with its key in one C-level pass.
    column = [value for _, value in rows()]
    request = build_submit_column("key-0", column)
    assert request[1][1] == "q"
    frame = encode_frame(*request[:2], trace_id=3)
    assert calls_outside_the_dealer(frame) <= CEILING * ROWS


def test_the_gate_sees_the_tagged_bodys_per_record_calls():
    # The same rows from an old client: the ceiling is not vacuous.
    frame = tagged_frame(FrameType.SUBMIT_BATCH, rows())
    assert calls_outside_the_dealer(frame) > 4 * ROWS


# -- the reply direction: ANSWERS -----------------------------------

ANSWERS = 48
#: Calls per columnar round trip, whatever the answer count (58 at
#: this writing: the spec table's tagged codec and one query object
#: per spec account for most of them).
ANSWER_CALLS_CEILING = 64


def library_calls(work) -> int:
    """Library ``call`` events while ``work()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls


def answers(count: int):
    """``count`` answers of two queries, as one POLL releases them."""
    queries = [Query(64, 16), Query(16, 4, name="short")]
    return [(16 * (i + 1), queries[i % 2], i * 3 - 40) for i in range(count)]


def answer_round_trip(released, marshal) -> int:
    """Calls to encode one ANSWERS frame and decode its answers."""

    def work():
        frame = encode_frame(FrameType.ANSWERS, marshal(released))
        decoded, _ = try_decode_frame_traced(frame)
        assert decode_answers(decoded.payload) == released

    return library_calls(work)


def test_answer_columns_make_no_per_answer_python_call():
    assert type(encode_answer_columns(answers(ANSWERS))) is AnswerColumns
    calls = answer_round_trip(answers(ANSWERS), encode_answer_columns)
    assert calls == answer_round_trip(
        answers(10 * ANSWERS), encode_answer_columns
    )
    assert calls <= ANSWER_CALLS_CEILING


def test_the_gate_sees_the_tagged_bodys_per_answer_calls():
    # The same answers to a connection without HELLO: the gate above
    # is not vacuous.
    assert answer_round_trip(answers(ANSWERS), encode_answers) > 8 * ANSWERS
