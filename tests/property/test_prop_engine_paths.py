"""Property tests: every path through the stream engine equals the oracle.

``StreamEngine.feed`` (with and without the slide-1 bypass of the
partial stage), ``feed_many`` and any interleaving of the two on one
engine must hand every sink exactly the triples naive recalculation
over the raw stream produces, in the engine's documented order:
ascending position and, within a position, the plan's query order
(descending range, then ascending slide, then name).

Answers are compared bit for bit (``repr``, so ``-0.0`` is not ``0.0``
and ``3`` is not ``3.0``) for every operator whose arithmetic is exact
on the drawn values; ``product`` and ``geometric_mean`` invert through
float division / logarithms and are compared to a tolerance.

On floats whose sums round at every step (``0.1``, ``1e16 + 1.0``) an
incremental answer is no longer the from-scratch one, so there the
paths are held to each other instead: any interleaving of ``feed`` and
``feed_many`` answers exactly what ``feed`` alone answers, by ``repr``,
for every operator — the bulk path performs the per-tuple path's
operations in the per-tuple path's order.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiquery import SharedSlickDeque
from repro.errors import InvalidOperatorError, WindowStateError
from repro.operators.registry import available_operators, get_operator
from repro.stream import checkpoint
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink, Sink
from repro.windows.query import Query
from tests import oracle


def _engine_supported(name):
    """Whether the shared plan can run this operator at all."""
    try:
        StreamEngine([Query(2, 1)], get_operator(name))
    except InvalidOperatorError:
        return False
    return True


OPERATOR_NAMES = [
    name for name in sorted(available_operators()) if _engine_supported(name)
]

#: Inverses through float division / logarithms: equal to a tolerance.
ULP_OPERATORS = ("product", "geometric_mean")

ints = st.integers(min_value=-200, max_value=200)
#: Quarter-integers plus ``-0.0``: every sum, square and mean of them
#: is exact in a double, so incremental and from-scratch arithmetic
#: must agree to the bit — including on the sign of zero.
exact_floats = st.one_of(
    st.integers(min_value=-80, max_value=80).map(lambda k: k / 4),
    st.just(-0.0),
)


#: Sums of these round at every step: a fold that is not one strict
#: left-to-right chain (pairwise, compensated) shows in the last bits.
rounding_floats = st.one_of(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0, -0.0]),
)


def _streams(operator_name):
    """Homogeneous streams of the values each operator aggregates."""
    if operator_name in ("bool_all", "bool_any"):
        domains = [st.booleans()]
    elif operator_name == "alpha_max":
        domains = [st.text(alphabet="abcx", max_size=3)]
    elif operator_name == "geometric_mean":
        domains = [st.floats(min_value=1e-3, max_value=1e3)]
    elif operator_name in ("product", "int_product"):
        domains = [st.integers(min_value=-4, max_value=4)]
    else:
        domains = [ints, exact_floats]
    return st.one_of(
        [st.lists(domain, min_size=1, max_size=80) for domain in domains]
    )


def _queries(slides):
    return st.lists(
        st.builds(Query, st.integers(min_value=1, max_value=18), slides),
        min_size=1,
        max_size=3,
        unique=True,
    )


#: Slide-1-only sets (the bypass), then mixed slides (the general path
#: and, when a slide-1 query is among them, multi-step unit plans).
query_sets = st.one_of(
    _queries(st.just(1)),
    _queries(st.integers(min_value=1, max_value=6)),
)

#: One entry per engine call: 0 is one ``feed``, k > 0 a ``feed_many``
#: of the next k values.
call_plans = st.lists(
    st.integers(min_value=0, max_value=9), min_size=1, max_size=40
)


class EmitOnlySink(Sink):
    """A user sink written against ``emit`` alone."""

    def __init__(self):
        self.seen = []

    def emit(self, position, query, answer):
        self.seen.append((position, query, answer))


def _drive(engine, stream, plan):
    """Feed ``stream`` through the calls ``plan`` lists, then per tuple."""
    index = 0
    for size in plan:
        if index >= len(stream):
            break
        if size == 0:
            engine.feed(stream[index])
            index += 1
        else:
            engine.feed_many(stream[index:index + size])
            index += size
    for value in stream[index:]:
        engine.feed(value)


def _assert_same(got, expected, operator_name):
    assert [t[:2] for t in got] == [t[:2] for t in expected]
    for (position, query, answer), (_, _, wanted) in zip(got, expected):
        if operator_name not in ULP_OPERATORS:
            assert repr(answer) == repr(wanted), (position, query)
        elif wanted != wanted:  # NaN
            assert answer != answer, (position, query)
        else:
            assert math.isclose(
                answer, wanted, rel_tol=1e-9, abs_tol=1e-12
            ), (position, query)


@pytest.mark.parametrize("operator_name", OPERATOR_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_interleaved_feeds_match_oracle_at_every_sink(operator_name, data):
    queries = data.draw(query_sets)
    technique = data.draw(st.sampled_from(["panes", "pairs"]))
    stream = data.draw(_streams(operator_name))
    plan = data.draw(call_plans)

    first, second, user = CollectSink(), CollectSink(), EmitOnlySink()
    engine = StreamEngine(
        queries,
        get_operator(operator_name),
        technique=technique,
        sinks=[first, second, user],
    )
    _drive(engine, stream, plan)

    expected = oracle.count_windows(get_operator(operator_name), queries, stream)
    _assert_same(first.answers, expected, operator_name)
    assert second.answers == first.answers
    assert user.seen == first.answers
    assert engine.tuples_consumed == len(stream)
    assert engine.answers_emitted == len(expected)


def _numeric(operator_name):
    """Whether the operator aggregates arbitrary floats at all."""
    try:
        op = get_operator(operator_name)
        op.lower(op.fold([0.1, -2.5, 1e16]))
    except Exception:
        return False
    return True


@pytest.mark.parametrize(
    "operator_name", [name for name in OPERATOR_NAMES if _numeric(name)]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_interleaved_feeds_equal_feed_on_rounding_floats(operator_name, data):
    queries = data.draw(query_sets)
    technique = data.draw(st.sampled_from(["panes", "pairs"]))
    stream = data.draw(
        st.one_of(
            st.lists(rounding_floats, min_size=1, max_size=80),
            st.integers(min_value=1, max_value=80).map(lambda n: [0.1] * n),
        )
    )
    plan = data.draw(call_plans)

    def run(call_plan):
        sink = CollectSink()
        engine = StreamEngine(
            queries,
            get_operator(operator_name),
            technique=technique,
            sinks=[sink],
        )
        _drive(engine, stream, call_plan)
        return sink.answers

    assert repr(run(plan)) == repr(run([]))


@pytest.mark.parametrize("operator_name", ["max", "sum", "mean"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_slide_one_engine_resumes_from_snapshot(operator_name, data):
    queries = data.draw(_queries(st.just(1)))
    stream = data.draw(st.lists(exact_floats, min_size=2, max_size=60))
    cut = data.draw(st.integers(min_value=1, max_value=len(stream) - 1))
    plan = data.draw(call_plans)

    def build():
        return StreamEngine(
            queries, get_operator(operator_name), sinks=[CollectSink()]
        )

    straight = build()
    _drive(straight, stream, plan)

    stopped = build()
    _drive(stopped, stream[:cut], plan)
    resumed = checkpoint.restore(
        checkpoint.snapshot(stopped), expected_type="StreamEngine"
    )
    for value in stream[cut:]:
        resumed.feed(value)

    assert repr(resumed.sinks[0].answers) == repr(straight.sinks[0].answers)
    assert resumed.tuples_consumed == straight.tuples_consumed
    assert resumed.answers_emitted == straight.answers_emitted


@pytest.mark.parametrize("operator_name", ["max", "sum"])
@pytest.mark.parametrize(
    "queries",
    [(Query(5, 1), Query(3, 1)), (Query(6, 2), Query(3, 1)), (Query(6, 2),)],
    ids=["slide1", "unit-steps", "general"],
)
def test_feed_and_feed_partial_stay_exclusive(queries, operator_name):
    fed = SharedSlickDeque(queries, get_operator(operator_name))
    fed.feed(1)
    with pytest.raises(WindowStateError, match="feed_partial"):
        fed.feed_partial(1, 1)

    bulk_fed = SharedSlickDeque(queries, get_operator(operator_name))
    bulk_fed.feed_many([1, 2])
    with pytest.raises(WindowStateError, match="feed_partial"):
        bulk_fed.feed_partial(1, 3)

    partial_fed = SharedSlickDeque(queries, get_operator(operator_name))
    partial_fed.feed_partial(1, 1)
    with pytest.raises(WindowStateError, match="feed_partial"):
        partial_fed.feed(1)
    with pytest.raises(WindowStateError, match="feed_partial"):
        partial_fed.feed_many([1])
