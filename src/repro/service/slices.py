"""Global-position slice arithmetic for the sharded service.

The shared plan (:mod:`repro.windows.plan`) expresses partial-aggregate
boundaries as edge offsets inside one composite cycle.  A single-process
engine walks those edges implicitly, one tuple at a time; a sharded
execution cannot, because each shard only sees a *subset* of the global
stream.  :class:`SliceClock` turns the plan's periodic edge pattern into
random-access arithmetic over global 1-based stream positions, so

* the router can stamp every shipped batch with a **watermark** (how
  many slices the positions shipped so far have fully closed),
* a shard can assign any of its records to its slice by global position
  alone, and
* the merger can recover each slice's end position (the position the
  single-process engine would report answers at).

Slice indices are 0-based and global: index ``k`` covers the ``k``-th
edge-delimited stretch of the whole stream, across all cycles.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.windows.plan import PlanStep, SharedPlan


class SliceClock:
    """Random-access mapping between stream positions and plan slices.

    Args:
        plan: The shared execution plan whose edge pattern to expand.
    """

    def __init__(self, plan: SharedPlan):
        self.plan = plan
        self._cycle = plan.cycle_length
        self._edges = plan.edges  # ascending offsets in 1..cycle_length
        self._per_cycle = len(plan.edges)

    @property
    def slices_per_cycle(self) -> int:
        """Number of slices in one composite cycle."""
        return self._per_cycle

    def slices_closed_by(self, position: int) -> int:
        """How many slices end at positions ``<= position``.

        This is the router's watermark: once every record with a global
        position up to ``position`` has been shipped, exactly this many
        slices can be finalised.
        """
        full_cycles, remainder = divmod(position, self._cycle)
        return (
            full_cycles * self._per_cycle
            + bisect_right(self._edges, remainder)
        )

    def slice_of(self, position: int) -> int:
        """0-based index of the slice containing stream ``position``."""
        return self.slices_closed_by(position - 1)

    def end_position(self, index: int) -> int:
        """1-based stream position of the last tuple in slice ``index``."""
        cycle_number, within = divmod(index, self._per_cycle)
        return cycle_number * self._cycle + self._edges[within]

    def cut(self, column: Sequence[int], index: int, lo: int, hi: int) -> int:
        """Where slice ``index`` ends in ascending ``column[lo:hi]``.

        A position exactly at :meth:`end_position` belongs to this
        slice.  Same verb as ``TimeSliceClock.cut``.
        """
        return bisect_right(column, self.end_position(index), lo, hi)

    def step_of(self, index: int) -> PlanStep:
        """The plan step that closes slice ``index``."""
        return self.plan.steps[index % self._per_cycle]
