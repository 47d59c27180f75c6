"""Pure-Python batch kernels built on the C-implemented builtins.

These are the library's only specialised kernels.  Every kernel here
is **exact**: its folds perform the same arithmetic, in the same order,
as the sequential ``combine(acc, lift(v))`` left fold, so bulk answers
are bit-identical to per-tuple answers in every domain — ``math.prod``
is a left-to-right fold, builtin ``sum`` is one on integers everywhere
and on floats only before CPython 3.12 (which made it compensated;
:func:`left_sum` is the fold on every interpreter), and the selection
kernels return actual stream elements, never derived values.

Inputs may be lists, ``array``/``memoryview`` columns or ndarrays; the
packed ones are converted with ``tolist()`` first (one C call), because
iterating them boxes each element into a fresh object — slower than the
per-tuple path these kernels exist to beat, and for an ndarray a
fixed-width numpy scalar whose arithmetic wraps.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Sequence, Tuple

from repro.kernels import BatchKernel, _unboxed
from repro.operators.base import Agg
from repro.operators.invertible import (
    CountOperator,
    ProductOperator,
    SumOfSquaresOperator,
    SumOperator,
)
from repro.operators.noninvertible import MaxOperator, MinOperator


def _sequential_sum(values: Sequence[Any], seed: Agg) -> Agg:
    """``seed + v₁ + … + vₖ`` where builtin ``sum`` is compensated.

    An ``int`` total means no float was met, so the builtin's answer is
    already the exact left fold and the integer hot path pays no
    per-element scan; anything else is recomputed as one sequential
    chain of additions.
    """
    total = sum(values, seed)
    if type(total) is int:
        return total
    for value in values:
        seed = seed + value
    return seed


#: Feature probe, decided once at import: a left fold loses the ``1.0``
#: (``1e16 + 1.0`` rounds back to ``1e16``), a compensated sum keeps it.
SUM_IS_LEFT_FOLD = sum([1e16, 1.0, -1e16], 0.0) == (1e16 + 1.0) - 1e16

#: ``left_sum(values, seed)``: the left-to-right fold ``seed + v₁ + … +
#: vₖ`` over a re-iterable ``values``, bit for bit in every domain —
#: builtin ``sum`` itself where the interpreter's is one.
left_sum: Callable[[Sequence[Any], Agg], Agg] = (
    sum if SUM_IS_LEFT_FOLD else _sequential_sum
)


def _sum_runs(
    terms: Sequence[Agg], bounds: Sequence[int], seed: Agg, identity: Agg
) -> List[Agg]:
    """``left_sum`` of every run of ``terms``: one comprehension."""
    if len(bounds) < 2:
        return []
    totals = [left_sum(terms[bounds[0]:bounds[1]], seed)]
    totals += [
        left_sum(terms[start:stop], identity)
        for start, stop in zip(bounds[1:], bounds[2:])
    ]
    return totals


class SumKernel(BatchKernel):
    """Sum/identity-lift addition: :func:`left_sum` is the left fold."""

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        return left_sum(_unboxed(values), seed)

    fold_aggs = fold

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        return _sum_runs(
            _unboxed(values), bounds, seed, self.operator.identity
        )

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        return _unboxed(values)


class CountKernel(BatchKernel):
    """Count: a batch contributes its length."""

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        return seed + len(values)

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        return left_sum(_unboxed(aggs), seed)

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        if len(bounds) < 2:
            return []
        identity = self.operator.identity
        counts = [seed + (bounds[1] - bounds[0])]
        counts += [
            identity + (stop - start)
            for start, stop in zip(bounds[1:], bounds[2:])
        ]
        return counts

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        return [1] * len(values)


class SumOfSquaresKernel(BatchKernel):
    """Sum of squares: one comprehension into :func:`left_sum`."""

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        return left_sum(
            [value * value for value in _unboxed(values)], seed
        )

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        return left_sum(_unboxed(aggs), seed)

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        first = bounds[0]
        squares = [
            value * value for value in _unboxed(values)[first:bounds[-1]]
        ]
        if first:
            bounds = [bound - first for bound in bounds]
        return _sum_runs(squares, bounds, seed, self.operator.identity)

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        return [value * value for value in _unboxed(values)]


class ProductKernel(BatchKernel):
    """Product over ``(nonzero_product, zero_count)`` aggregates.

    Skipping zero lifts is exact: a zero lifts to ``(1, 1)`` and
    multiplying by 1 is exact in every numeric domain, so the skipped
    factors change nothing but the zero count — which is tracked
    separately.  ``math.prod`` is a sequential left fold.
    """

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        values = _unboxed(values)
        nonzero = [value for value in values if value != 0]
        return (
            math.prod(nonzero, start=seed[0]),
            seed[1] + len(values) - len(nonzero),
        )

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        product, zeros = seed
        return (
            math.prod((agg[0] for agg in aggs), start=product),
            zeros + sum(agg[1] for agg in aggs),
        )

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        lift = self._lift
        return [lift(value) for value in _unboxed(values)]


class _SelectionKernel(BatchKernel):
    """Shared machinery for Max/Min: builtin reduction + one combine.

    The builtin ``max``/``min`` over the *reversed* batch returns the
    newest extremal element, matching the operators' prefer-newer tie
    rule; one final ``combine`` folds it under the seed.  Selection
    folds return actual elements, so this is exact in every domain.
    """

    _reduce: Callable[..., Any] = staticmethod(max)

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        values = _unboxed(values)
        if not values:
            return seed
        # The batch is newer than the seed; combine(older=seed, newer)
        # keeps the operators' prefer-newer tie rule intact.
        return self._combine(seed, self._reduce(reversed(values)))

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        return self.fold(aggs, seed)

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        if len(bounds) < 2:
            return []
        values = _unboxed(values)
        if len(bounds) - 1 == bounds[-1] - bounds[0]:
            # One value per run: nothing to reduce.
            return self.seed_runs(values[bounds[0]:bounds[-1]], seed)
        # One ⊕ folds each run's newest extremum under its seed, as
        # ``fold`` does.
        reduce = self._reduce
        return self.seed_runs(
            [
                reduce(reversed(values[start:stop]))
                for start, stop in zip(bounds, bounds[1:])
            ],
            seed,
        )

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        return _unboxed(values)


class MaxKernel(_SelectionKernel):
    """Max (and AlphabeticalMax): suffix chain = strict suffix maxima."""

    _reduce = staticmethod(max)

    def suffix_chain(
        self, values: Sequence[Any]
    ) -> List[Tuple[int, Agg]]:
        values = _unboxed(values)
        chain: List[Tuple[int, Agg]] = []
        best: Any = None
        for index in range(len(values) - 1, -1, -1):
            value = values[index]
            if best is None or value > best:
                chain.append((index, value))
                best = value
        chain.reverse()
        return chain


class MinKernel(_SelectionKernel):
    """Min: suffix chain = strict suffix minima."""

    _reduce = staticmethod(min)

    def suffix_chain(
        self, values: Sequence[Any]
    ) -> List[Tuple[int, Agg]]:
        values = _unboxed(values)
        chain: List[Tuple[int, Agg]] = []
        best: Any = None
        for index in range(len(values) - 1, -1, -1):
            value = values[index]
            if best is None or value < best:
                chain.append((index, value))
                best = value
        chain.reverse()
        return chain


#: Registry name → (kernel class, operator type the kernel's shortcuts
#: are derived from); :func:`repro.kernels.kernel_for` looks operators
#: up here.  The type guard means a *custom* operator that happens to
#: reuse a builtin name falls back to the generic kernel instead of
#: silently inheriting the builtin's arithmetic.
_KERNELS = {
    "sum": (SumKernel, SumOperator),
    "count": (CountKernel, CountOperator),
    "sum_of_squares": (SumOfSquaresKernel, SumOfSquaresOperator),
    "product": (ProductKernel, ProductOperator),
    "int_product": (ProductKernel, ProductOperator),
    "max": (MaxKernel, MaxOperator),
    "alpha_max": (MaxKernel, MaxOperator),
    "min": (MinKernel, MinOperator),
}

