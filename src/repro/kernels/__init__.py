"""Batch kernels: O(batch)-amortized folds behind the bulk-ingestion API.

Every hot path in the library used to cross several Python frames per
tuple.  The bulk API (``push_many``/``step_many``/``feed_many``) instead
hands whole micro-batches to a *kernel* — a small object that folds a
batch of raw values (or already-lifted aggregates) into one partial with
a single C-level loop, and, for selection operators, pre-collapses a
batch to its dominance suffix chain.

Every kernel is *exact*: built on the C-implemented builtins (``sum``,
``len``, ``max``, ``min``, ``math.prod``, see :mod:`repro.kernels.pure`),
its folds are bit-identical to the sequential ``combine(acc, lift(v))``
left fold for every input domain and container, floats included
(builtin ``sum`` is used only where it is that left fold — see
:func:`repro.kernels.pure.left_sum`).  An ndarray or ``memoryview``
batch becomes Python scalars with one ``tolist()`` first, so int64
inputs never wrap and answers never hold fixed-width scalars.

Kernel selection happens at operator-registry time
(:func:`repro.operators.registry.get_operator` calls :func:`attach`) or
lazily on first use; either way the chosen kernel is cached on the
operator instance, so the per-batch dispatch cost is one attribute read.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.operators.base import Agg, AggregateOperator

#: Instance attribute under which the resolved kernel is cached.
_CACHE_ATTR = "_batch_kernel"


def lift_is_identity(operator: AggregateOperator) -> bool:
    """Whether ``operator`` inherits the identity ``lift`` unchanged."""
    return type(operator).lift is AggregateOperator.lift


def _unboxed(values: Any) -> Sequence[Any]:
    """Materialise ndarrays as lists of Python scalars before looping.

    Iterating an ndarray yields numpy scalar objects, which are both
    slower than builtins in Python-level arithmetic and — critically —
    fixed-width: a chain of ``np.int64`` multiplications overflows
    silently where Python ints are exact.  ``tolist()`` unboxes the
    whole batch in one C call.
    """
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else values


class BatchKernel:
    """Generic batch kernel: bound-method sequential loops.

    This is the universal fallback — correct for every operator, exact
    in every domain (it performs the very same call sequence as the
    per-tuple path, just with the hot callables bound once per batch
    instead of re-resolved per tuple).  Operator-specific subclasses in
    :mod:`repro.kernels.pure` replace the loops with C-level reductions.
    """

    def __init__(self, operator: AggregateOperator):
        self.operator = operator
        self._lift = operator.lift
        self._combine = operator.combine
        self._identity_lift = lift_is_identity(operator)

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        """Lift every value of a batch (zero-copy for identity lifts).

        A packed batch comes back unboxed either way: the lifted
        aggregates outlive the call (the partials ring keeps them), so
        they must be Python scalars, not ndarray elements.
        """
        values = _unboxed(values)
        if self._identity_lift:
            return values
        lift = self._lift
        return [lift(value) for value in values]

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        """Left fold ``seed ⊕ lift(v₁) ⊕ … ⊕ lift(vₖ)`` over raw values."""
        combine = self._combine
        acc = seed
        if self._identity_lift:
            for value in _unboxed(values):
                acc = combine(acc, value)
            return acc
        lift = self._lift
        for value in _unboxed(values):
            acc = combine(acc, lift(value))
        return acc

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        """Left fold ``seed ⊕ a₁ ⊕ … ⊕ aₖ`` over already-lifted aggs."""
        combine = self._combine
        acc = seed
        for agg in _unboxed(aggs):
            acc = combine(acc, agg)
        return acc

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        """Segmented fold: one exact left fold per run, one dispatch.

        Run ``i`` is ``values[bounds[i]:bounds[i + 1]]``; ``bounds``
        must ascend strictly (no empty run).  The first run is seeded
        with ``seed`` — the caller's open accumulator — and every later
        run with the operator identity, so the result is the list of
        ``len(bounds) - 1`` partials the per-tuple path would have
        closed, bit for bit, in *every* domain.  The container is
        unboxed once per call, not once per run.

        This generic body unboxes the batch once and loops
        :meth:`fold` per run; when every run is a single value it is
        one comprehension of ``identity ⊕ lift(v)`` (⊕ with the
        identity still runs: ``0 + -0.0`` is ``0.0``).
        """
        values = _unboxed(values)
        first, last = bounds[0], bounds[-1]
        if first == last:
            return []
        if len(bounds) - 1 == last - first:
            return self.seed_runs(self.lift_many(values[first:last]), seed)
        fold = self.fold
        identity = self.operator.identity
        folded = []
        start = first
        for stop in bounds[1:]:
            folded.append(fold(values[start:stop], seed))
            seed = identity
            start = stop
        return folded

    def seed_runs(self, aggs: Sequence[Agg], seed: Agg) -> List[Agg]:
        """One ⊕ per run over already-reduced runs (at least one).

        ``seed ⊕ aggs[0]``, then ``identity ⊕ agg`` for every later
        run — :meth:`fold_runs`' seed rule for bodies that reduce each
        run to one aggregate first (a single lifted value, a run's
        extremum).
        """
        combine = self._combine
        identity = self.operator.identity
        folded = [combine(seed, aggs[0])]
        folded += [combine(identity, agg) for agg in aggs[1:]]
        return folded

    def suffix_chain(
        self, values: Sequence[Any]
    ) -> List[Tuple[int, Agg]]:
        """Dominance suffix chain of a batch (selection operators).

        Returns ``(index, lifted_agg)`` pairs, ascending by index, of
        exactly the batch elements that would survive as deque nodes if
        the batch were pushed one tuple at a time through Algorithm 2's
        tail-eviction rule: an element survives iff no later element
        dominates it, which — because selection dominance is a total
        preorder over the lift keys — is iff it is not dominated by the
        fold of its suffix.
        """
        dominates = self.operator.dominates
        lift = self._lift
        identity_lift = self._identity_lift
        values = _unboxed(values)
        chain: List[Tuple[int, Agg]] = []
        best: Optional[Agg] = None
        for index in range(len(values) - 1, -1, -1):
            agg = values[index] if identity_lift else lift(values[index])
            if best is None or not dominates(agg, best):
                chain.append((index, agg))
                best = agg
        chain.reverse()
        return chain


def kernel_for(operator: AggregateOperator) -> BatchKernel:
    """The batch kernel for ``operator``, resolved once and cached.

    The specialised kernel registered under the operator's name in
    :data:`repro.kernels.pure._KERNELS` when the operator is an instance
    of that entry's operator type, else the generic bound-method
    kernel.  The result is cached on the operator *instance*, so
    wrappers that mutate per-instance state (counting operators, ArgMax
    with custom keys) each get their own kernel.
    """
    cached = operator.__dict__.get(_CACHE_ATTR)
    if cached is not None:
        return cached
    entry = _pure._KERNELS.get(operator.name)
    if entry is not None and isinstance(operator, entry[1]):
        kernel = entry[0](operator)
    else:
        kernel = BatchKernel(operator)
    setattr(operator, _CACHE_ATTR, kernel)
    return kernel


def attach(operator: AggregateOperator) -> AggregateOperator:
    """Resolve and cache ``operator``'s kernel now; return the operator.

    Called by :func:`repro.operators.registry.get_operator` so kernel
    selection happens at registry time, off the hot path.
    """
    kernel_for(operator)
    return operator


def as_sequence(values: Any) -> Sequence[Any]:
    """Return ``values`` as a len()-able, sliceable sequence.

    Lists, tuples, and ndarrays pass through untouched; other iterables
    (generators, deques) are materialised once.  The bulk entry points
    call this so callers may hand over any iterable.
    """
    if hasattr(values, "__len__") and hasattr(values, "__getitem__"):
        return values
    return list(values)


def active_backends() -> List[str]:
    """Names of the kernel backends: the one exact set."""
    return ["pure"]


# The specialised kernels subclass BatchKernel, so they load last.
from repro.kernels import pure as _pure  # noqa: E402

__all__ = [
    "BatchKernel",
    "attach",
    "active_backends",
    "kernel_for",
    "lift_is_identity",
]
