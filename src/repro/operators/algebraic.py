"""Algebraic operators composed from distributive parts (Section 3.1).

The paper: "By combining these distributive aggregations we can
calculate some commonly used algebraic aggregations such as: Average
(Count and Sum), Standard Deviation (Sum of Squares, Sum, and Count),
Geometric Mean (Product and Count), and Range (Max and Min)."

A :class:`ComposedOperator` carries its distributive components and a
``finalize`` step.  It is itself a perfectly valid associative operator
over tuple aggregates, so tree-based algorithms (FlatFAT, B-Int, ...)
can run it directly.  When *all* components are invertible the
composition is invertible too (:class:`InvertibleComposedOperator`) and
rides SlickDeque's (Inv) fast path.  When they are not (Range), the
facade in :mod:`repro.core.facade` decomposes the query and runs one
selection deque per component — the component-wise processing the
paper's "differentiated handling" enables.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence, Tuple

from repro.operators.base import Agg, AggregateOperator, InvertibleOperator
from repro.operators.invertible import (
    CountOperator,
    SumOfSquaresOperator,
    SumOperator,
)
from repro.operators.noninvertible import NEG_INF, MaxOperator, MinOperator


class _LogSumOperator(InvertibleOperator):
    """Sum of logarithms: the invertible core of Geometric Mean."""

    name = "log_sum"
    commutative = True

    @property
    def identity(self) -> Agg:
        return 0.0

    def lift(self, value: Any) -> Agg:
        return math.log(value)

    def combine(self, older: Agg, newer: Agg) -> Agg:
        return older + newer

    def inverse(self, agg: Agg, removed: Agg) -> Agg:
        return agg - removed


class ComposedOperator(AggregateOperator):
    """Algebraic operator: componentwise distributive ops + a finalizer.

    Aggregate values are tuples with one slot per component.  ``lower``
    applies the finalizer, producing the user-facing answer.
    """

    def __init__(
        self,
        name: str,
        components: Sequence[AggregateOperator],
        finalize: Callable[..., Any],
    ):
        self.name = name
        self.components: Tuple[AggregateOperator, ...] = tuple(components)
        self._finalize = finalize
        self.commutative = all(c.commutative for c in self.components)

    @property
    def identity(self) -> Agg:
        return tuple(c.identity for c in self.components)

    def lift(self, value: Any) -> Agg:
        return tuple(c.lift(value) for c in self.components)

    def lower(self, agg: Agg) -> Any:
        return self._finalize(*agg)

    def combine(self, older: Agg, newer: Agg) -> Agg:
        return tuple(
            c.combine(a, b) for c, a, b in zip(self.components, older, newer)
        )


class InvertibleComposedOperator(ComposedOperator, InvertibleOperator):
    """A composition whose every component is invertible."""

    invertible = True

    def inverse(self, agg: Agg, removed: Agg) -> Agg:
        return tuple(
            c.inverse(a, b)  # type: ignore[union-attr]
            for c, a, b in zip(self.components, agg, removed)
        )


def compose(
    name: str,
    components: Sequence[AggregateOperator],
    finalize: Callable[..., Any],
) -> ComposedOperator:
    """Build a composed operator, invertible iff all components are."""
    if all(c.invertible for c in components):
        return InvertibleComposedOperator(name, components, finalize)
    return ComposedOperator(name, components, finalize)


def _safe_ratio(numerator: float, count: int) -> float:
    return math.nan if count == 0 else numerator / count


def mean_operator() -> InvertibleComposedOperator:
    """Average = Sum / Count (invertible)."""
    op = compose("mean", [SumOperator(), CountOperator()], _safe_ratio)
    assert isinstance(op, InvertibleComposedOperator)
    return op


def _variance_finalize(sum_sq: float, total: float, count: int) -> float:
    if count == 0:
        return math.nan
    mean = total / count
    # Clamp tiny negative values from floating-point cancellation.
    return max(sum_sq / count - mean * mean, 0.0)


def variance_operator() -> InvertibleComposedOperator:
    """Population variance from (SumSq, Sum, Count) — invertible."""
    op = compose(
        "variance",
        [SumOfSquaresOperator(), SumOperator(), CountOperator()],
        _variance_finalize,
    )
    assert isinstance(op, InvertibleComposedOperator)
    return op


def stddev_operator() -> InvertibleComposedOperator:
    """Population standard deviation (paper: invertible)."""
    op = compose(
        "stddev",
        [SumOfSquaresOperator(), SumOperator(), CountOperator()],
        lambda ssq, s, n: math.sqrt(_variance_finalize(ssq, s, n)),
    )
    assert isinstance(op, InvertibleComposedOperator)
    return op


def geometric_mean_operator() -> InvertibleComposedOperator:
    """Geometric Mean from (log-Sum, Count) — invertible.

    Implemented in log space, so it requires strictly positive inputs —
    the same restriction the paper's Product-and-Count formulation has.
    """
    op = compose(
        "geometric_mean",
        [_LogSumOperator(), CountOperator()],
        lambda log_sum, n: math.nan if n == 0 else math.exp(log_sum / n),
    )
    assert isinstance(op, InvertibleComposedOperator)
    return op


def _range_finalize(maximum: Any, minimum: Any) -> Any:
    if maximum == NEG_INF:  # empty window: the components' identities
        return math.nan
    return maximum - minimum


def range_operator() -> ComposedOperator:
    """Range = Max − Min (non-invertible; components are selection ops).

    The composition itself is not selection-type, so deque-based
    processing must be done per component; the SlickDeque facade does
    exactly that.
    """
    return compose("range", [MaxOperator(), MinOperator()], _range_finalize)
