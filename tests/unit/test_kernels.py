"""Unit tests for the batch-kernel registry and its exactness contract."""

from __future__ import annotations

import functools
import math
import operator as operators
import random
from array import array

import pytest

from repro.kernels import (
    BatchKernel,
    active_backends,
    as_sequence,
    kernel_for,
    lift_is_identity,
)
from repro.kernels import pure
from repro.kernels.pure import (
    CountKernel,
    MaxKernel,
    MinKernel,
    ProductKernel,
    SumKernel,
    SumOfSquaresKernel,
)
from repro.operators.instrumented import CountingOperator
from repro.operators.invertible import SumOperator
from repro.operators.registry import get_operator


def _sequential_fold(operator, values, seed):
    acc = seed
    for value in values:
        acc = operator.combine(acc, operator.lift(value))
    return acc


def test_active_backends_is_the_one_pure_set():
    assert active_backends() == ["pure"]


def test_kernel_cached_on_the_operator_instance():
    operator = get_operator("sum")
    assert kernel_for(operator) is kernel_for(operator)
    other = get_operator("sum")
    assert kernel_for(other) is not kernel_for(operator)


def test_builtin_operators_get_specialised_kernels():
    expected = {
        "sum": SumKernel,
        "count": CountKernel,
        "sum_of_squares": SumOfSquaresKernel,
        "product": ProductKernel,
        "int_product": ProductKernel,
        "max": MaxKernel,
        "alpha_max": MaxKernel,
        "min": MinKernel,
    }
    for name, kernel_class in expected.items():
        assert type(kernel_for(get_operator(name))) is kernel_class, name


def test_unregistered_operators_fall_back_to_the_generic_kernel():
    for name in ("mean", "variance", "first", "last", "argmax_cos"):
        kernel = kernel_for(get_operator(name))
        assert type(kernel) is BatchKernel, name


def test_type_guard_rejects_name_squatting_operators():
    """A custom operator reusing a builtin name must not inherit the
    builtin kernel's arithmetic."""

    class FakeSum(SumOperator):
        name = "max"  # squat on the max registry slot

    kernel = kernel_for(FakeSum())
    assert type(kernel) is BatchKernel


def test_counting_wrapper_gets_its_own_generic_kernel():
    counting = CountingOperator(get_operator("sum"))
    kernel = kernel_for(counting)
    assert type(kernel) is BatchKernel
    before = counting.ops
    kernel.fold([1, 2, 3], counting.identity)
    assert counting.ops >= before + 3  # instrumentation still counts


def test_pure_folds_are_bit_identical_to_sequential_folds():
    rng = random.Random(3)
    for name in ("sum", "count", "int_product", "sum_of_squares",
                 "max", "min", "first", "last", "mean", "variance"):
        operator = get_operator(name)
        kernel = kernel_for(operator)
        for _ in range(40):
            values = [rng.uniform(-50, 50) for _ in range(rng.randint(0, 60))]
            seed = operator.identity
            assert kernel.fold(values, seed) == _sequential_fold(
                operator, values, seed
            ), name


@pytest.mark.parametrize(
    "sum_fold", [pure.left_sum, pure._sequential_sum], ids=["native", "chain"]
)
def test_left_sum_is_the_sequential_chain(sum_fold):
    """Both bodies — builtin ``sum`` where the interpreter's is a left
    fold, the explicit chain where it is compensated (CPython >= 3.12)
    — equal ``functools.reduce`` bit for bit."""
    rng = random.Random(22)
    columns = [
        [0.1] * 64,
        [1e16, 1.0, -1e16],
        [rng.uniform(-1e6, 1e6) for _ in range(200)],
        [rng.randint(-(2**70), 2**70) for _ in range(50)],
        [3, 0.1, True, 2**65 // 3, -0.0],
        [],
    ]
    for column in columns:
        for seed in (0, 0.0, -0.0, 7, 0.3):
            assert repr(sum_fold(column, seed)) == repr(
                functools.reduce(operators.add, column, seed)
            )
    # No float met: the builtin's total is already exact, as an int.
    assert type(sum_fold([True, 2, 2**70], 0)) is int


def test_sum_kernels_fold_left_to_right_on_every_interpreter(monkeypatch):
    """``[0.1] * n`` is where a compensated ``sum`` shows; run the
    kernels over it with each ``left_sum`` body."""
    values = [0.1] * 64
    chain = functools.reduce(operators.add, values, 0.0)
    squares = functools.reduce(
        operators.add, [value * value for value in values], 0.0
    )
    for body in (pure.left_sum, pure._sequential_sum):
        monkeypatch.setattr(pure, "left_sum", body)
        for name, wanted in (("sum", chain), ("sum_of_squares", squares)):
            kernel = kernel_for(get_operator(name))
            assert repr(kernel.fold(values, 0.0)) == repr(wanted)
            halves = kernel.fold_runs(values, [0, 32, 64], 0.0)
            assert repr(halves) == repr(
                [kernel.fold(values[:32], 0.0), kernel.fold(values[32:], 0)]
            )
        count = kernel_for(get_operator("count"))
        assert repr(count.fold_aggs(values, 0.0)) == repr(chain)


class CombineCountingSum(SumOperator):
    """A true ``SumOperator`` (so it gets the sum kernels) that counts
    how often the library falls back to calling ⊕ per element."""

    def __init__(self):
        self.combines = 0

    def combine(self, older, newer):
        self.combines += 1
        return older + newer


@pytest.mark.parametrize("box", [lambda a: a, memoryview], ids=["array", "view"])
def test_exact_fold_on_a_float_column_never_loops_over_combine(box):
    """The exact path for a packed float column is the pure kernel's
    one C-level fold, not a per-element ``combine`` loop."""
    rng = random.Random(23)
    values = [rng.uniform(-10.0, 10.0) for _ in range(256)] + [0.1] * 64
    operator = CombineCountingSum()
    result = kernel_for(operator).fold(box(array("d", values)), 0.25)
    assert operator.combines == 0
    assert repr(result) == repr(functools.reduce(operators.add, values, 0.25))


def test_fold_runs_seeds_the_first_run_only():
    operator = get_operator("sum")
    kernel = kernel_for(operator)
    values = [1, 2, 3, 4, 5, 6]
    assert kernel.fold_runs(values, [0, 2, 3, 6], 100) == [103, 3, 15]
    assert kernel.fold_runs(values, [1, 4], 0.5) == [9.5]  # a sub-range
    assert kernel.fold_runs(values, [0], 100) == []  # no run
    assert kernel.fold_runs(values, range(7), 100)[:2] == [101, 2]
    for name in ("max", "mean", "count", "first", "int_product"):
        operator = get_operator(name)
        folded = kernel_for(operator).fold_runs(
            values, [0, 2, 6], operator.identity
        )
        assert folded == [
            _sequential_fold(operator, values[:2], operator.identity),
            _sequential_fold(operator, values[2:], operator.identity),
        ], name


def test_suffix_chain_matches_brute_force_survival():
    rng = random.Random(5)
    for name in ("max", "min", "first", "last", "argmax_cos"):
        operator = get_operator(name)
        kernel = kernel_for(operator)
        for _ in range(60):
            values = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 30))]
            chain = kernel.suffix_chain(values)
            survivors = []
            for index, value in enumerate(values):
                agg = operator.lift(value)
                dominated = any(
                    operator.dominates(agg, operator.lift(later))
                    for later in values[index + 1:]
                )
                if not dominated:
                    survivors.append((index, agg))
            assert chain == survivors, name


def test_integer_ndarrays_avoid_fixed_width_overflow():
    np = pytest.importorskip("numpy")
    operator = get_operator("int_product")
    values = np.full(50, 40, dtype=np.int64)  # 40**50 overflows int64
    result = kernel_for(operator).fold(values, operator.identity)
    assert operator.lower(result) == 40**50


def test_lift_many_is_zero_copy_for_identity_lifts():
    operator = get_operator("sum")
    assert lift_is_identity(operator)
    values = [1, 2, 3]
    assert kernel_for(operator).lift_many(values) is values


def test_as_sequence_materialises_generators_once():
    generated = as_sequence(v for v in range(5))
    assert list(generated) == [0, 1, 2, 3, 4]
    concrete = [1, 2]
    assert as_sequence(concrete) is concrete


def test_geometric_mean_answers_match_per_tuple_within_ulps():
    """Float-transcendental lifts reassociate under telescoping; the
    bulk answer must agree to ulp precision (docs/performance.md)."""
    from repro.core.slickdeque_inv import SlickDequeInv

    rng = random.Random(9)
    stream = [rng.randint(1, 60) for _ in range(300)]
    ref = SlickDequeInv(get_operator("geometric_mean"), 16)
    bulk = SlickDequeInv(get_operator("geometric_mean"), 16)
    for value in stream:
        ref.push(value)
    bulk.push_many(stream)
    assert math.isclose(ref.query(), bulk.query(), rel_tol=1e-12)
