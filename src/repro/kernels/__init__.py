"""Batch kernels: O(batch)-amortized folds behind the bulk-ingestion API.

Every hot path in the library used to cross several Python frames per
tuple.  The bulk API (``push_many``/``step_many``/``feed_many``) instead
hands whole micro-batches to a *kernel* — a small object that folds a
batch of raw values (or already-lifted aggregates) into one partial with
a single C-level loop, and, for selection operators, pre-collapses a
batch to its dominance suffix chain.

Two backends exist:

* **pure** (:mod:`repro.kernels.pure`) — always available; built on the
  C-implemented builtins (``sum``, ``len``, ``max``, ``min``,
  ``math.prod``).  Every pure kernel is *exact*: its folds are
  bit-identical to the sequential ``combine(acc, lift(v))`` left fold
  for every input domain, including floats (builtin ``sum`` is used
  only where it is that left fold — see
  :func:`repro.kernels.pure.left_sum`).
* **numpy** (:mod:`repro.kernels.numpy_backend`) — registered only when
  numpy imports (the ``repro[fast]`` extra); engages only for ndarray
  inputs, where boxing each element into a Python object would defeat
  the pure kernels.  Float reductions may reassociate (numpy uses
  pairwise summation), so a numpy kernel's :meth:`~BatchKernel.fold`
  reports ``exact=False`` on float data; callers that require
  bit-exact equivalence with the per-tuple path (the stream engine, the
  sharded service) fold through :meth:`BatchKernel.fold_runs` — exact
  on every kernel, for every container — or :func:`exact_fold`, its
  one-run case.

Kernel selection happens at operator-registry time
(:func:`repro.operators.registry.get_operator` calls :func:`attach`) or
lazily on first use; either way the chosen kernel is cached on the
operator instance, so the per-batch dispatch cost is one attribute read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    the backend modules replace the loops with C-level reductions.
    """

    #: ``True`` when :meth:`fold`/:meth:`fold_aggs` are guaranteed
    #: bit-identical to the sequential left fold for *all* inputs.
    exact = True

    def __init__(self, operator: AggregateOperator):
        self.operator = operator
        self._lift = operator.lift
        self._combine = operator.combine
        self._identity_lift = lift_is_identity(operator)

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        """Lift every value of a batch (zero-copy for identity lifts)."""
        if self._identity_lift:
            return values
        lift = self._lift
        return [lift(value) for value in _unboxed(values)]

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
        closed, bit for bit, in *every* domain: unlike :meth:`fold`,
        no kernel's ``fold_runs`` ever reassociates.  The container is
        classified once per call, not once per run.

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

    def is_exact_for(self, values: Sequence[Any]) -> bool:
        """Whether :meth:`fold` is bit-exact for this specific batch.

        Unconditionally true for exact kernels; inexact kernels (numpy
        on float data) override this to claim exactness for inputs that
        reduce exactly in any order (integer dtypes).
        """
        return self.exact

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


#: name → factory(operator) -> Optional[BatchKernel].  A factory may
#: return ``None`` to decline (e.g. numpy missing a dtype), in which
#: case resolution falls through to the generic kernel.
_FACTORIES: Dict[
    str, Callable[[AggregateOperator], Optional[BatchKernel]]
] = {}


def register_kernel_factory(
    name: str,
    factory: Callable[[AggregateOperator], Optional[BatchKernel]],
) -> None:
    """Register a kernel factory for the operator named ``name``."""
    _FACTORIES[name] = factory


def kernel_for(operator: AggregateOperator) -> BatchKernel:
    """The batch kernel for ``operator``, resolved once and cached.

    Resolution order: a factory registered under the operator's name
    (the backend modules register the builtin operators), then the
    generic bound-method kernel.  The result is cached on the operator
    *instance*, so wrappers that mutate per-instance state (counting
    operators, ArgMax with custom keys) each get their own kernel.
    """
    cached = operator.__dict__.get(_CACHE_ATTR)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(operator.name)
    kernel = factory(operator) if factory is not None else None
    if kernel is None:
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


def exact_fold(
    operator: AggregateOperator, values: Sequence[Any], seed: Agg
) -> Agg:
    """Fold a batch with the guarantee of bit-exact left-fold answers.

    The one-run case of :meth:`BatchKernel.fold_runs`, which is where
    exactness is decided: the result is byte-identical to the per-tuple
    ``combine(acc, lift(v))`` chain in *every* domain and for every
    container, float columns included (those fold in the kernel's pure
    body, never in numpy).
    """
    total = len(values)
    if not total:
        return seed
    return kernel_for(operator).fold_runs(values, (0, total), seed)[0]


def as_sequence(values: Any) -> Sequence[Any]:
    """Return ``values`` as a len()-able, sliceable sequence.

    Lists, tuples, and ndarrays pass through untouched; other iterables
    (generators, deques) are materialised once.  The bulk entry points
    call this so callers may hand over any iterable.
    """
    if hasattr(values, "__len__") and hasattr(values, "__getitem__"):
        return values
    return list(values)


def numpy_enabled() -> bool:
    """Whether the numpy kernel backend registered successfully."""
    from repro.kernels import numpy_backend

    return numpy_backend.HAS_NUMPY


def active_backends() -> List[str]:
    """Names of the registered kernel backends, pure first."""
    backends = ["pure"]
    if numpy_enabled():
        backends.append("numpy")
    return backends


# Backend registration: pure always, numpy when importable.  Import
# order matters — numpy factories wrap the pure ones so they can fall
# back per call for non-ndarray inputs.
from repro.kernels import pure as _pure  # noqa: E402

_pure.register(register_kernel_factory)

from repro.kernels import numpy_backend as _numpy  # noqa: E402

if _numpy.HAS_NUMPY:
    _numpy.register(register_kernel_factory, _FACTORIES)

__all__ = [
    "BatchKernel",
    "attach",
    "active_backends",
    "exact_fold",
    "kernel_for",
    "lift_is_identity",
    "numpy_enabled",
    "register_kernel_factory",
]
