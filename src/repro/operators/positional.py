"""Positional operators: First and Last over a sliding window.

``FIRST_VALUE`` / ``LAST_VALUE`` window functions as sliding-window
aggregations.  Both are associative, non-commutative, non-invertible,
and selection-type (``x ⊕ y ∈ {x, y}``) — so they ride SlickDeque
(Non-Inv), and they exercise the two extreme deque behaviours:

* **Last** — every newcomer dominates the whole deque, which therefore
  holds exactly one node (the §4.1 best case, O(1) space);
* **First** — nothing ever dominates, the deque stays full, and the
  answer is served purely by head expiry (the §4.1 worst-space case,
  on *every* input).

They also demonstrate why the library never assumes commutativity.
"""

from __future__ import annotations

from repro.operators.base import Agg, AggregateOperator
from repro.operators.noninvertible import NEG_INF, _NegativeInfinity


class FirstOperator(AggregateOperator):
    """The oldest value in the window (``FIRST_VALUE``)."""

    name = "first"
    commutative = False
    selects = True

    @property
    def identity(self) -> Agg:
        # The sentinel loses to any real value regardless of order.
        return NEG_INF

    def combine(self, older: Agg, newer: Agg) -> Agg:
        if isinstance(older, _NegativeInfinity):
            return newer
        return older

    def dominates(self, incumbent: Agg, challenger: Agg) -> bool:
        # A newer value never supersedes an older one, not even one
        # that compares equal: ``0.0 == -0.0`` and ``1 == True``, and
        # the window's first element is the older of the two.
        return isinstance(incumbent, _NegativeInfinity)


class LastOperator(AggregateOperator):
    """The newest value in the window (``LAST_VALUE``)."""

    name = "last"
    commutative = False
    selects = True

    @property
    def identity(self) -> Agg:
        return NEG_INF

    def combine(self, older: Agg, newer: Agg) -> Agg:
        if isinstance(newer, _NegativeInfinity):
            return older
        return newer

    def dominates(self, incumbent: Agg, challenger: Agg) -> bool:
        # Every newcomer supersedes everything before it.
        return not isinstance(challenger, _NegativeInfinity) or (
            isinstance(incumbent, _NegativeInfinity)
        )
