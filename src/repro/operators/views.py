"""Operator views: adapters for staged aggregation pipelines.

Two recurring needs when final aggregation is fed *partial aggregates*
rather than raw tuples:

* :func:`raw_view` — keep intermediate aggregates un-lowered, so a
  caller can keep combining (e.g. Cutty's open partial) and finalise
  once at the end;
* :func:`partial_view` — additionally skip ``lift``: the inputs are
  already lifted aggregates, and lifting is not idempotent for Count,
  Mean, SumOfSquares, ...

``partial_view`` preserves componentwise structure for non-invertible
algebraic compositions (Range), exposing slice views per component so
the SlickDeque invertibility dispatch can still decompose them.
"""

from __future__ import annotations

from typing import Any

from repro.operators.algebraic import ComposedOperator
from repro.operators.base import Agg, AggregateOperator, InvertibleOperator


class RawView(InvertibleOperator):
    """Delegate everything but keep aggregates un-lowered.

    Subclasses :class:`InvertibleOperator` so invertibility dispatch
    still works; the ``invertible`` flag mirrors the wrapped operator.
    ``lower`` is the inherited identity, which the engines skip.
    """

    def __init__(self, inner: AggregateOperator):
        self.inner = inner
        self.name = f"raw({inner.name})"
        self.invertible = inner.invertible
        self.commutative = inner.commutative
        self.selects = inner.selects

    @property
    def identity(self) -> Agg:
        return self.inner.identity

    def lift(self, value: Any) -> Agg:
        return self.inner.lift(value)

    def combine(self, older: Agg, newer: Agg) -> Agg:
        return self.inner.combine(older, newer)

    def inverse(self, agg: Agg, removed: Agg) -> Agg:
        return self.inner.inverse(agg, removed)  # type: ignore[attr-defined]

    def dominates(self, incumbent: Agg, challenger: Agg) -> bool:
        return self.inner.dominates(incumbent, challenger)


class PartialView(RawView):
    """A raw view whose inputs are *already lifted* aggregates."""

    lift = AggregateOperator.lift  # the base identity: callers skip it


class ComponentSlice(AggregateOperator):
    """One component of an already-lifted composed aggregate.

    ``lift`` selects the component's slot from the tuple aggregate;
    everything else delegates, and ``lower`` stays raw.
    """

    def __init__(self, component: AggregateOperator, index: int):
        self._component = component
        self._index = index
        self.name = f"slice{index}({component.name})"
        self.invertible = component.invertible
        self.commutative = component.commutative
        self.selects = component.selects

    @property
    def identity(self) -> Agg:
        return self._component.identity

    def lift(self, value: Any) -> Agg:
        return value[self._index]

    def combine(self, older: Agg, newer: Agg) -> Agg:
        return self._component.combine(older, newer)

    def dominates(self, incumbent: Agg, challenger: Agg) -> bool:
        return self._component.dominates(incumbent, challenger)


def _component_tuple(*aggs: Agg) -> Agg:
    return aggs


def raw_view(operator: AggregateOperator) -> AggregateOperator:
    """An un-lowering view of ``operator`` (idempotent)."""
    if isinstance(operator, RawView):
        return operator
    return RawView(operator)


def partial_view(operator: AggregateOperator) -> AggregateOperator:
    """A view for aggregators consuming completed partials.

    Non-invertible compositions keep componentwise structure (as slice
    views); the finalizer is deferred to the caller — ``lower`` is the
    identity on the component tuple.
    """
    if isinstance(operator, ComposedOperator) and not operator.invertible:
        slices = [
            ComponentSlice(component, index)
            for index, component in enumerate(operator.components)
        ]
        return ComposedOperator(
            f"partial({operator.name})", slices, _component_tuple
        )
    return PartialView(operator)
