"""Property tests: the segmented fold is the per-tuple ⊕ chain, run by run.

For every registry operator, any container the bulk paths hand a
kernel (``list``, ``tuple``, ``array('q'/'d')``, ``memoryview`` and
``ndarray``, skipped where numpy does not import), random strictly
increasing cut points and either seed (the identity, or the fold of an
earlier chunk — which is a *float* accumulator in front of an int
column when the chunk held one), ``BatchKernel.fold_runs`` must equal one ``BatchKernel.fold`` per
run must equal ``combine(acc, lift(v))`` per value, by ``repr`` — so
``-0.0`` is not ``0.0`` and ``3`` is not ``3.0``.  A run the chain
refuses must make the segmented fold raise too.

Int columns are drawn both well inside int64 and where a 64-bit sum
(``size * max|x| >= 2**63``) would wrap, in short and in wide columns.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import kernel_for
from repro.operators.registry import available_operators, get_operator

OPERATOR_NAMES = sorted(available_operators())

small_ints = st.integers(min_value=-1000, max_value=1000)
#: A 64-bit sum of these wraps at any column length; each fits int64.
wide_ints = st.integers(min_value=-(2**62), max_value=2**62)
bigints = st.integers(min_value=-(2**80), max_value=2**80)
#: Non-dyadic: sums of these round at every step, so any
#: reassociation (pairwise, compensated) shows in the last bits.
floats = st.one_of(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e16, -1e16, 1.0]),
)
mixed = st.one_of(small_ints, st.booleans(), bigints, floats)

#: Short columns, and wide ones.
sizes = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=256, max_value=300),
)

CONTAINERS = ["list", "tuple", "array", "memoryview", "ndarray"]


def _column(data, container):
    """Draw values and box them as ``container`` holds them."""
    size = data.draw(sizes)
    if container in ("list", "tuple"):
        domain = data.draw(
            st.sampled_from([small_ints, st.booleans(), bigints, floats, mixed])
        )
        values = data.draw(st.lists(domain, min_size=size, max_size=size))
        return values, (values if container == "list" else tuple(values))
    code = data.draw(st.sampled_from("qd"))
    if code == "q":
        domain = data.draw(st.sampled_from([small_ints, wide_ints]))
    else:
        domain = floats
    values = data.draw(st.lists(domain, min_size=size, max_size=size))
    typed = array(code, values)
    if container == "memoryview":
        return values, memoryview(typed)
    if container == "ndarray":
        numpy = pytest.importorskip("numpy")
        return values, numpy.frombuffer(typed, dtype=typed.typecode)
    return values, typed


def _chain(operator, values, seed):
    accumulated = seed
    for value in values:
        accumulated = operator.combine(accumulated, operator.lift(value))
    return accumulated


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("operator_name", OPERATOR_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fold_runs_equals_exact_fold_equals_the_chain(
    operator_name, container, data
):
    operator = get_operator(operator_name)
    values, column = _column(data, container)
    cuts = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(values)), min_size=1)
    )
    bounds = sorted(cuts)
    prefix = data.draw(st.lists(mixed, max_size=3))
    try:
        seed = _chain(operator, prefix, operator.identity)
    except Exception:
        seed = operator.identity

    runs = list(zip(bounds, bounds[1:]))
    seeds = [seed] + [operator.identity] * (len(runs) - 1)
    try:
        expected = [
            _chain(operator, values[start:stop], run_seed)
            for (start, stop), run_seed in zip(runs, seeds)
        ]
    except Exception:
        # A value the operator refuses: the bulk fold refuses it too.
        with pytest.raises(Exception):
            kernel_for(operator).fold_runs(column, bounds, seed)
        return

    folded = kernel_for(operator).fold_runs(column, bounds, seed)
    assert repr(folded) == repr(expected)
    one_by_one = [
        kernel_for(operator).fold(column[start:stop], run_seed)
        for (start, stop), run_seed in zip(runs, seeds)
    ]
    assert repr(one_by_one) == repr(expected)
