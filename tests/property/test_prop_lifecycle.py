"""Property-based tests of lifecycle operations: resize + checkpoint.

These drive random interleavings of pushes, resizes, and
snapshot/restore cycles and require the subject to stay synchronized
with a model that is rebuilt from raw history at every step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveAggregator
from repro.baselines.recalc import RecalcAggregator
from repro.core.slickdeque_inv import SlickDequeInv
from repro.core.slickdeque_noninv import SlickDequeNonInv
from repro.operators.invertible import SumOperator
from repro.operators.noninvertible import MaxOperator
from repro.operators.registry import get_operator
from repro.registry import available_algorithms, get_algorithm
from repro.stream.checkpoint import restore, snapshot
from tests import oracle

#: Event stream: ('push', value) or ('resize', new_window).
events = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"), st.integers(min_value=-99, max_value=99)
        ),
        st.tuples(st.just("resize"), st.integers(min_value=1,
                                                 max_value=24)),
    ),
    min_size=1,
    max_size=120,
)


@given(script=events, initial=st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_resize_interleaving_sum(script, initial):
    operator = SumOperator()
    subjects = [
        RecalcAggregator(SumOperator(), initial),
        NaiveAggregator(SumOperator(), initial),
        SlickDequeInv(SumOperator(), initial),
    ]
    history = []
    window = initial
    for action, argument in script:
        if action == "push":
            history.append(argument)
            for subject in subjects:
                subject.push(argument)
        else:
            # Growing cannot resurrect evicted data: the retained
            # history after a resize is the last min(old, new) values.
            history = history[-min(window, argument):]
            window = argument
            for subject in subjects:
                subject.resize(argument)
        if history:
            expected = oracle.fold(operator, history[-window:])
            for subject in subjects:
                assert subject.query() == expected, type(subject)


@given(script=events, initial=st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_resize_interleaving_max(script, initial):
    operator = MaxOperator()
    subject = SlickDequeNonInv(MaxOperator(), initial)
    recalc = RecalcAggregator(MaxOperator(), initial)
    history = []
    window = initial
    pushed = False
    for action, argument in script:
        if action == "push":
            pushed = True
            history.append(argument)
            subject.push(argument)
            recalc.push(argument)
        else:
            history = history[-min(window, argument):]
            window = argument
            subject.resize(argument)
            recalc.resize(argument)
        if pushed and history:
            expected = oracle.fold(operator, history[-window:])
            assert subject.query() == expected
            assert recalc.query() == expected


@given(
    stream=st.lists(
        st.integers(min_value=-99, max_value=99), min_size=2,
        max_size=100,
    ),
    cuts=st.sets(st.integers(min_value=1, max_value=99), max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_checkpoint_chains_preserve_answers(stream, cuts):
    """Multiple snapshot/restore cycles equal an uninterrupted run."""
    positions = sorted(c for c in cuts if c < len(stream))
    for name in available_algorithms():
        spec = get_algorithm(name)
        continuous = spec.single(get_operator("max"), 8)
        expected = continuous.run(stream)
        subject = spec.single(get_operator("max"), 8)
        produced = []
        start = 0
        for cut in positions + [len(stream)]:
            produced.extend(subject.run(stream[start:cut]))
            subject = restore(snapshot(subject))
            start = cut
        assert produced == expected, name
