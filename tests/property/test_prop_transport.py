"""Property-based tests: the columnar transport is pickle-equivalent.

The zero-copy data plane's correctness claim is that swapping pickled
Queue batches for columnar shared-memory frames never changes an
answer.  That reduces to three properties checked here over random
inputs:

* value columns round-trip bit-exactly (same values, same *types*) for
  every batch the capability check accepts, and the check refuses any
  batch whose types a flat i64/f64 column could mangle;
* the dictionary key table round-trips arbitrary key objects with type
  identity;
* every single-bit corruption of a sealed frame is detected as a
  :class:`~repro.errors.TornFrameError` — the invariant the chaos
  recovery path is built on.

The per-operator sweep folds decoded columns through every registered
operator and demands exact equality with folding the pickle
round-trip, tying the transport property to the actual aggregation
semantics rather than just container equality.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TornFrameError
from repro.operators.registry import available_operators, get_operator
from repro.service.transport.frame import (
    FrameKind,
    decode_frame,
    encode_batch_frame,
    encode_pickled_frame,
    encode_values,
)

OPERATOR_NAMES = sorted(available_operators())

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _value_domain(operator_name):
    """Values each operator is meant to aggregate.

    ``bool_*`` deliberately produce booleans — a type the capability
    check must refuse — so the pickle-fallback branch is exercised by
    the same sweep that exercises the columnar fast path.
    """
    if operator_name in ("bool_all", "bool_any"):
        return st.booleans()
    if operator_name == "geometric_mean":
        return st.floats(min_value=1e-3, max_value=1e3)
    if operator_name in ("alpha_max", "argmax_cos"):
        return st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False
        )
    return st.integers(min_value=-(10**9), max_value=10**9)


# Key types that are never ``==`` across type boundaries, so the
# dictionary encoding cannot merge two originals of different types.
safe_keys = st.one_of(
    st.none(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
)


def _transport_round_trip(keys, values, traces=None):
    """Ship one batch through the codec exactly as the supervisor does.

    Returns ``(keys, values, traces, columnar)`` after the round trip:
    the columnar frame when the capability check accepts the batch,
    the pickled-frame fallback otherwise.
    """
    frame = encode_batch_frame(
        0, 1, len(values) - 1 if values else None,
        list(range(len(values))), keys, values, traces,
    )
    if frame is None:
        fallback = encode_pickled_frame(
            FrameKind.PICKLED, 0, 1, (keys, values, traces)
        )
        decoded = decode_frame(memoryview(fallback))
        out_keys, out_values, out_traces = decoded.payload
        return out_keys, out_values, out_traces, False
    decoded = decode_frame(memoryview(frame))
    out_keys = decoded.keys
    out_values = list(decoded.values)
    out_traces = decoded.traces
    decoded.release()
    return out_keys, out_values, out_traces, True


@pytest.mark.parametrize("operator_name", OPERATOR_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transport_equals_pickle_for_every_operator(operator_name, data):
    values = data.draw(
        st.lists(_value_domain(operator_name), min_size=1, max_size=40)
    )
    keys = data.draw(
        st.lists(
            st.sampled_from(["a", "b", "c"]),
            min_size=len(values),
            max_size=len(values),
        )
    )
    expected = pickle.loads(pickle.dumps(values))
    out_keys, out_values, _, columnar = _transport_round_trip(keys, values)
    assert out_keys == keys
    assert out_values == expected
    assert [type(v) for v in out_values] == [type(v) for v in expected]
    if operator_name in ("bool_all", "bool_any"):
        # Boolean batches must take the fallback: an i64 column would
        # have silently retyped them.
        assert not columnar
    operator = get_operator(operator_name)
    assert operator.fold(out_values) == operator.fold(expected)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=_I64_MIN, max_value=_I64_MAX),
            st.floats(allow_nan=False),
        ),
        max_size=40,
    )
)
def test_capability_check_accepts_exactly_uniform_numeric(values):
    encoded = encode_values(values)
    kinds = set(map(type, values))
    if not values or kinds in ({int}, {float}):
        assert encoded is not None
        body, is_float = encoded
        assert is_float == (kinds == {float})
        assert len(body) == 8 * len(values)
    else:
        assert encoded is None


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-(1 << 70), max_value=1 << 70),
        min_size=1,
        max_size=30,
    )
)
def test_out_of_range_ints_fall_back_not_truncate(values):
    encoded = encode_values(values)
    if any(not (_I64_MIN <= v <= _I64_MAX) for v in values):
        assert encoded is None
    else:
        body, is_float = encoded
        assert not is_float
        # Bit-exact: the decoded column is the original list.
        assert list(memoryview(body).cast("q")) == values


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(safe_keys, min_size=1, max_size=30))
def test_key_table_round_trips_with_type_identity(keys):
    values = list(range(len(keys)))
    out_keys, out_values, _, columnar = _transport_round_trip(keys, values)
    assert columnar
    assert out_values == values
    assert out_keys == keys
    assert [type(k) for k in out_keys] == [type(k) for k in keys]


@settings(max_examples=50, deadline=None)
@given(
    traces=st.lists(
        st.one_of(
            st.none(), st.integers(min_value=1, max_value=(1 << 64) - 1)
        ),
        min_size=1,
        max_size=30,
    )
)
def test_trace_column_round_trips(traces):
    keys = ["k"] * len(traces)
    values = list(range(len(traces)))
    _, out_values, out_traces, columnar = _transport_round_trip(
        keys, values, traces
    )
    assert columnar
    assert out_values == values
    if any(t is not None for t in traces):
        assert out_traces == traces
    else:
        # An all-None trace column is elided entirely.
        assert out_traces is None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_bit_flip_is_detected(data):
    values = data.draw(
        st.lists(st.integers(min_value=-100, max_value=100), max_size=20)
    )
    frame = bytearray(
        encode_batch_frame(
            1, 7, 3, list(range(len(values))), ["k"] * len(values),
            values, None,
        )
    )
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    frame[index] ^= 1 << bit
    with pytest.raises(TornFrameError):
        decode_frame(memoryview(bytes(frame)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_truncation_is_detected(data):
    frame = encode_batch_frame(
        0, 1, 9, [0, 1, 2], ["a", "b", "a"], [5, 6, 7], [1, None, 2]
    )
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    with pytest.raises(TornFrameError):
        decode_frame(memoryview(frame[:cut]))
