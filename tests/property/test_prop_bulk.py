"""Property tests: bulk ingestion is indistinguishable from per-tuple.

Hypothesis drives random streams, windows, and *batch chunkings*
through every registered algorithm and a spread of operators, twice —
once tuple by tuple, once through ``push_many``/``step_many``/
``feed_many`` — and asserts the answers are identical at every batch
boundary.  Operators whose per-tuple arithmetic is itself exact
(integers, selections) must match byte-for-byte; the two operators
with float-division/transcendental inverses (``product``,
``geometric_mean``) are documented to agree to ulp precision only
(see ``docs/performance.md``) and are covered in the kernels' unit
tests instead.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.registry import get_operator
from repro.registry import available_algorithms, get_algorithm
from repro.service.chaos import poison
from repro.service.partition import Batch
from repro.service.shard import ShardConfig, ShardState
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

int_streams = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1,
    max_size=120,
)
float_streams = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=120,
)
windows = st.integers(min_value=1, max_value=40)
#: Batch sizes drawn per boundary; includes batches larger than any
#: window so the k >= window shortcut paths are exercised.
chunk_plans = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=40
)

#: Operators whose per-tuple arithmetic is reassociation-safe, so the
#: bulk path must be byte-identical.
EXACT_OPERATORS = (
    "sum", "count", "int_product", "mean", "max", "min", "first", "last",
)
#: Selection operators stay byte-exact even on float streams (folds
#: return actual stream elements, never derived values).
SELECTION_OPERATORS = ("max", "min", "first", "last", "argmax_cos")


def _outcome(aggregator):
    """A query's answer, or the exception type it raised."""
    try:
        return ("ok", aggregator.query())
    except Exception as error:
        return ("raised", type(error).__name__)


def _chunks(stream, plan):
    index = 0
    for size in plan:
        if index >= len(stream):
            return
        yield stream[index:index + size]
        index += size
    if index < len(stream):
        yield stream[index:]


def _pairs(operator_names, window):
    for algorithm in available_algorithms():
        spec = get_algorithm(algorithm)
        for name in operator_names:
            try:
                reference = spec.single(get_operator(name), window)
                bulk = spec.single(get_operator(name), window)
            except Exception:
                continue  # operator/algorithm capability mismatch
            yield algorithm, name, reference, bulk


@given(stream=int_streams, window=windows, plan=chunk_plans)
@settings(max_examples=25, deadline=None)
def test_push_many_matches_push_for_every_algorithm(stream, window, plan):
    for algorithm, name, reference, bulk in _pairs(EXACT_OPERATORS, window):
        for chunk in _chunks(stream, plan):
            for value in chunk:
                reference.push(value)
            bulk.push_many(chunk)
            assert _outcome(bulk) == _outcome(reference), (algorithm, name)


@given(stream=float_streams, window=windows, plan=chunk_plans)
@settings(max_examples=25, deadline=None)
def test_selection_bulk_is_byte_exact_on_floats(stream, window, plan):
    for algorithm, name, reference, bulk in _pairs(
        SELECTION_OPERATORS, window
    ):
        for chunk in _chunks(stream, plan):
            for value in chunk:
                reference.push(value)
            bulk.push_many(chunk)
            assert _outcome(bulk) == _outcome(reference), (algorithm, name)


@given(
    stream=int_streams,
    ranges=st.lists(
        st.integers(min_value=1, max_value=30), min_size=1, max_size=5
    ),
    plan=chunk_plans,
)
@settings(max_examples=25, deadline=None)
def test_step_many_matches_step_for_every_multi_algorithm(
    stream, ranges, plan
):
    for operator_name in ("sum", "max", "mean", "first"):
        for algorithm in available_algorithms(multi_query=True):
            spec = get_algorithm(algorithm)
            try:
                reference = spec.multi(get_operator(operator_name), ranges)
                bulk = spec.multi(get_operator(operator_name), ranges)
            except Exception:
                continue
            expected = [reference.step(value) for value in stream]
            produced = []
            for chunk in _chunks(stream, plan):
                produced.extend(bulk.step_many(chunk))
            assert produced == expected, (algorithm, operator_name)


@given(
    stream=st.one_of(
        float_streams,
        st.integers(min_value=1, max_value=120).map(lambda n: [0.1] * n),
    ),
    plan=chunk_plans,
)
@settings(max_examples=25, deadline=None)
def test_engine_feed_many_is_byte_exact_even_for_floats(stream, plan):
    """The engine folds through the exact segmented fold: float
    streams included (``[0.1] * n`` is where a compensated builtin
    ``sum`` would show), every sink triple must match the per-tuple
    run byte-for-byte."""
    queries = (Query(10, 3), Query(6, 2))
    for operator_name in ("sum", "mean", "max", "range"):
        reference_sink, bulk_sink = CollectSink(), CollectSink()
        reference = StreamEngine(
            queries, get_operator(operator_name), sinks=[reference_sink]
        )
        bulk = StreamEngine(
            queries, get_operator(operator_name), sinks=[bulk_sink]
        )
        for value in stream:
            reference.feed(value)
        for chunk in _chunks(stream, plan):
            bulk.feed_many(chunk)
        assert repr(bulk_sink.answers) == repr(
            reference_sink.answers
        ), operator_name
        assert bulk.tuples_consumed == reference.tuples_consumed
        assert bulk.answers_emitted == reference.answers_emitted


# -- ShardState bulk vs single-record batches ------------------------

QUERIES = (Query(10, 3), Query(6, 2))
KEYS = ["a", "b", "c"]


def _drive(mode, records, batch_sizes):
    """Run records through a ShardState in the given batch framing."""
    state = ShardState(
        ShardConfig(
            shard_id=0,
            num_shards=1,
            queries=QUERIES,
            operator=get_operator("sum"),
            mode=mode,
        )
    )
    outputs = []
    seq = 0
    index = 0
    sizes = list(batch_sizes) + [len(records)]  # remainder in one batch
    for size in sizes:
        chunk = records[index:index + size]
        if not chunk:
            continue
        index += size
        seq += 1
        outputs.append(
            state.process(
                Batch(
                    shard=0,
                    seq=seq,
                    watermark=0,
                    positions=[position for position, _, _ in chunk],
                    keys=[key for _, key, _ in chunk],
                    values=[value for _, _, value in chunk],
                )
            )
        )
    # Final empty batch closes every slice (global mode).
    outputs.append(
        state.process(Batch(shard=0, seq=seq + 1, watermark=10**9))
    )
    return state, outputs


def _flatten(outputs):
    return {
        "partials": [p for o in outputs for p in o.partials],
        "answers": [a for o in outputs for a in o.key_answers],
        "dead": [
            (l.key, l.position, type(l.value).__name__)
            for o in outputs
            for l in o.dead_letters
        ],
        "degraded": sorted(
            k for o in outputs for k in o.degraded_keys
        ),
        "records": sum(o.records for o in outputs),
    }


@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(KEYS),
            # Ints, and floats whose sums round at every step: a fold
            # that is not one left-to-right chain shows in the bits.
            st.one_of(
                st.integers(min_value=-50, max_value=50),
                st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0]),
            ),
        ),
        min_size=1,
        max_size=80,
    ),
    poison_positions=st.sets(
        st.integers(min_value=0, max_value=79), max_size=3
    ),
    plan=chunk_plans,
)
@settings(max_examples=25, deadline=None)
def test_shard_bulk_path_equals_single_record_batches(
    records, poison_positions, plan
):
    """The shard's run-grouped bulk folds — including the per-record
    replay fallback around poison records — must produce exactly the
    answers, dead letters, and degraded keys that size-1 batches
    (which cannot group anything) produce, and slice pieces that are
    the size-1 pieces chained run by run."""
    stamped = [
        (position + 1, key, value)
        for position, (key, value) in enumerate(records)
    ]
    for position in sorted(poison_positions):
        if position < len(stamped):
            stamped[position] = (
                stamped[position][0],
                stamped[position][1],
                poison(f"p{position}"),
            )
    for mode in ("global", "per_key"):
        _, bulk_outputs = _drive(mode, stamped, plan)
        _, tiny_outputs = _drive(mode, stamped, [1] * len(stamped))
        bulk, tiny = _flatten(bulk_outputs), _flatten(tiny_outputs)
        if mode == "global":
            tiny["partials"] = _regroup(tiny["partials"], bulk["partials"])
        assert repr(bulk) == repr(tiny), mode


def _regroup(tiny, bulk):
    """One-record pieces folded, in position order, into the runs the
    bulk pieces name: a frame's run fold must equal that chain (no
    value in these streams is ``-0.0``, so ``0 + v`` is ``v``).  A
    one-record piece no bulk run covers keeps its own key and shows
    as a mismatch."""
    combine = get_operator("sum").combine
    grouped = {}
    for index, position, piece in tiny:
        key = max(
            (
                (slice_, first)
                for slice_, first, _ in bulk
                if slice_ == index and first <= position
            ),
            default=(index, position),
        )
        grouped[key] = combine(grouped.get(key, 0), piece)
    return [(index, first, grouped[index, first]) for index, first in sorted(grouped)]
