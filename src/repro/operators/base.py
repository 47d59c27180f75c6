"""Aggregate-operator protocol (paper Section 3.1).

The paper classifies aggregations as *distributive*, *algebraic*, or
*holistic*, and further splits distributive operations by their
mathematical properties: associativity (required by every algorithm in
the paper, including SlickDeque), invertibility (the property SlickDeque
dispatches on), and commutativity (not required).

An operator here is a monoid-with-extras over *aggregate values*:

``identity``
    The neutral element (``initVal`` in Algorithm 1): ``combine(identity,
    x) == x == combine(x, identity)``.

``combine(a, b)``
    The associative operation ``⊕``.  Order is significant: ``a`` is
    always the *older* aggregate, ``b`` the newer one, so non-commutative
    operators work throughout the library.

``lift(value)`` / ``lower(agg)``
    Conversion between raw stream values and aggregate values.  For
    plain distributive operators both are the identity function; for
    algebraic operators (Mean, StdDev, ...) ``lift`` builds the tuple of
    distributive components and ``lower`` finalises it (Section 3.1:
    "calculating the algebraic aggregations follows trivially").

Invertible operators additionally expose ``inverse(a, b)`` — the ``⊖``
of Algorithm 1 — satisfying ``inverse(combine(a, b), b) == a``.

Selection-type non-invertible operators (Max, Min, ArgMax, ...) satisfy
the paper's note that for non-invertible ⊕, ``x ⊕ y ∈ {x, y}``; the
:meth:`AggregateOperator.selects` flag marks them, and it is what makes
the SlickDeque (Non-Inv) deque answers exact element values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable

from repro.errors import InvalidOperatorError

#: Type alias for aggregate values.  Aggregates are intentionally
#: untyped: numbers for Sum/Max, tuples for algebraic compositions,
#: strings for AlphabeticalMax.
Agg = Any


class AggregateOperator(ABC):
    """Associative aggregate operation over a sliding window.

    Subclasses must define :attr:`name`, :attr:`identity` and
    :meth:`combine`.  The default :meth:`lift`/:meth:`lower` are
    identity functions, which is correct for distributive operators.
    """

    #: Registry / display name, e.g. ``"sum"``.
    name: str = "abstract"

    #: ``True`` when an inexpensive inverse ``⊖`` exists (Section 3.1).
    invertible: bool = False

    #: ``True`` when ``combine`` is commutative.  The library never
    #: relies on commutativity; the flag exists so tests can check that
    #: algorithms do *not* depend on it.
    commutative: bool = False

    #: ``True`` when ``combine(a, b)`` always returns one of its
    #: arguments (selection semantics: Max, Min, ArgMax, ...).
    selects: bool = False

    @property
    @abstractmethod
    def identity(self) -> Agg:
        """The neutral aggregate value (``initVal`` in Algorithm 1)."""

    @abstractmethod
    def combine(self, older: Agg, newer: Agg) -> Agg:
        """Apply ``older ⊕ newer``.

        ``older`` must precede ``newer`` in stream order so that
        non-commutative operators remain correct.
        """

    def lift(self, value: Any) -> Agg:
        """Convert a raw stream value into an aggregate value."""
        return value

    def lower(self, agg: Agg) -> Any:
        """Convert an aggregate value into a query answer."""
        return agg

    def fold(self, values: Iterable[Any]) -> Agg:
        """Aggregate an iterable of *raw* values left-to-right.

        This is the from-scratch evaluation used by the Recalc oracle
        and by partial aggregation; it is deliberately the most obvious
        possible implementation.
        """
        acc = self.identity
        for value in values:
            acc = self.combine(acc, self.lift(value))
        return acc

    def fold_aggs(self, aggs: Iterable[Agg]) -> Agg:
        """Aggregate an iterable of already-lifted aggregate values."""
        acc = self.identity
        for agg in aggs:
            acc = self.combine(acc, agg)
        return acc

    def dominates(self, incumbent: Agg, challenger: Agg) -> bool:
        """Whether ``challenger`` makes ``incumbent`` irrelevant.

        This is the tail-eviction test of Algorithm 2 line 16:
        ``incumbent ⊕ challenger == challenger`` (the incumbent "will
        never be a query answer").  Meaningful for selection-type
        operators; defined generally because it only uses ``combine``.
        """
        return self.combine(incumbent, challenger) == challenger

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class InvertibleOperator(AggregateOperator):
    """Aggregate operator with an inexpensive inverse ``⊖``.

    Satisfies ``inverse(combine(a, b), b) == a`` for all aggregates in
    the operator's domain.  SlickDeque (Inv) and Subtract-on-Evict rely
    on this for their constant per-slide update.
    """

    invertible = True

    @abstractmethod
    def inverse(self, agg: Agg, removed: Agg) -> Agg:
        """Apply ``agg ⊖ removed``, un-doing an earlier ``combine``."""


def require_invertible(operator: AggregateOperator) -> InvertibleOperator:
    """Return ``operator`` if invertible, else raise.

    Raises:
        InvalidOperatorError: when the operator declares itself
            non-invertible or lacks an ``inverse`` method.
    """
    if not operator.invertible or not isinstance(operator, InvertibleOperator):
        raise InvalidOperatorError(
            f"operator {operator.name!r} is not invertible; use the "
            "non-invertible (deque) processing path instead"
        )
    return operator


def require_selection(operator: AggregateOperator) -> AggregateOperator:
    """Return ``operator`` if it has selection semantics, else raise.

    SlickDeque (Non-Inv) returns *element values* straight from its
    deque nodes, which is only an exact answer when ``x ⊕ y ∈ {x, y}``.
    """
    if not operator.selects:
        raise InvalidOperatorError(
            f"operator {operator.name!r} does not have selection "
            "semantics (x ⊕ y ∈ {x, y}); SlickDeque (Non-Inv) requires it"
        )
    return operator
