"""Integration: checkpoint/restore resume-equivalence for every
algorithm (single and multi-query) and for the shared engine."""

from __future__ import annotations

import pytest

from repro.core.multiquery import SharedSlickDeque
from repro.operators.noninvertible import ArgMaxOperator
from repro.operators.registry import get_operator
from repro.registry import available_algorithms, get_algorithm
from repro.stream.checkpoint import (
    CheckpointError,
    restore,
    snapshot,
)
from repro.windows.query import Query
from tests.conftest import int_stream

STREAM = int_stream(300, seed=77)
SPLIT = 170


@pytest.mark.parametrize("algorithm", available_algorithms())
@pytest.mark.parametrize("operator_name", ["sum", "max"])
def test_single_query_resume_equivalence(algorithm, operator_name):
    spec = get_algorithm(algorithm)
    continuous = spec.single(get_operator(operator_name), 16)
    expected = continuous.run(STREAM)

    subject = spec.single(get_operator(operator_name), 16)
    subject.run(STREAM[:SPLIT])
    resumed = restore(snapshot(subject))
    assert resumed.run(STREAM[SPLIT:]) == expected[SPLIT:]


@pytest.mark.parametrize(
    "algorithm", available_algorithms(multi_query=True)
)
def test_multi_query_resume_equivalence(algorithm):
    spec = get_algorithm(algorithm)
    ranges = [2, 7, 13]
    continuous = spec.multi(get_operator("max"), ranges)
    expected = continuous.run(STREAM)

    subject = spec.multi(get_operator("max"), ranges)
    subject.run(STREAM[:SPLIT])
    resumed = restore(snapshot(subject))
    assert resumed.run(STREAM[SPLIT:]) == expected[SPLIT:]


@pytest.mark.parametrize("operator_name", ["sum", "max", "range"])
@pytest.mark.parametrize(
    "queries",
    [[Query(6, 2), Query(8, 4)], [Query(6, 1), Query(3, 1)]],
    ids=["mixed", "slide1"],
)
def test_shared_engine_resume_equivalence(queries, operator_name):
    # Every engine's state — bound operator methods, per-step answer
    # tables, the slide-1 bypass's callables — survives the pickle.
    continuous = SharedSlickDeque(queries, get_operator(operator_name))
    expected = list(continuous.run(STREAM))

    subject = SharedSlickDeque(queries, get_operator(operator_name))
    consumed = list(subject.run(STREAM[:SPLIT]))
    resumed = restore(snapshot(subject))
    tail = list(resumed.run(STREAM[SPLIT:]))
    assert consumed + tail == expected


def test_type_check_on_restore():
    spec = get_algorithm("naive")
    data = snapshot(spec.single(get_operator("sum"), 4))
    with pytest.raises(CheckpointError, match="expected"):
        restore(data, expected_type="DABAAggregator")
    assert restore(data, expected_type="NaiveAggregator") is not None


def test_corrupt_data_rejected():
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        restore(b"garbage bytes here")


def test_truncated_payload_rejected():
    spec = get_algorithm("naive")
    data = snapshot(spec.single(get_operator("sum"), 4))
    with pytest.raises(CheckpointError, match="corrupt"):
        restore(data[:-7])


def test_version_mismatch_rejected():
    import pickle

    from repro.stream import checkpoint

    header = pickle.dumps(
        {"magic": b"repro-ckpt", "version": 99, "type": "X"}
    )
    data = len(header).to_bytes(4, "big") + header + b""
    with pytest.raises(CheckpointError, match="format v99"):
        checkpoint.restore(data)


def test_lambda_key_operator_fails_loudly():
    from repro.core.slickdeque_noninv import SlickDequeNonInv

    aggregator = SlickDequeNonInv(
        ArgMaxOperator(lambda x: x * x), 8
    )
    aggregator.push(3)
    with pytest.raises(CheckpointError, match="cannot snapshot"):
        snapshot(aggregator)


def test_file_round_trip(tmp_path):
    from repro.stream.checkpoint import load, save

    spec = get_algorithm("slickdeque")
    aggregator = spec.single(get_operator("sum"), 8)
    aggregator.run(STREAM[:50])
    path = tmp_path / "window.ckpt"
    with open(path, "wb") as handle:
        save(aggregator, handle)
    with open(path, "rb") as handle:
        resumed = load(handle, expected_type="SlickDequeInv")
    assert resumed.query() == aggregator.query()
