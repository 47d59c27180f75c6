"""numpy batch kernels (the ``repro[fast]`` optional extra).

Import-guarded: when numpy is absent this module still imports cleanly
with ``HAS_NUMPY = False`` and registers nothing, so the library keeps
zero hard dependencies.

numpy kernels engage **only for inputs already in array form** —
ndarrays, plus the 1-D int64/float64 ``memoryview`` columns the shm
transport decodes out of its rings (viewed zero-copy with
``np.frombuffer``).  Converting a Python list to an array costs one
boxed pass over the data, which is the very cost the pure kernels
already avoid; every method delegates to the wrapped pure kernel for
any other input type.

Exactness:

* Float reductions (``np.add.reduce`` et al.) use pairwise summation,
  which reassociates — bulk answers can differ from the per-tuple path
  in the last ulps.  These kernels' ``fold`` therefore reports
  ``exact = False``; ``fold_runs`` (and
  :func:`repro.kernels.exact_fold`, its one-run case) never reduces a
  float column in numpy — it takes the wrapped pure kernel's body.
* Integer sums reduce in numpy **only behind an overflow proof**:
  ``size * max|x| < 2**63`` bounds every partial sum of any subset, so
  the int64 reduction provably cannot wrap and — integer addition
  being associative and exact — the result is bit-identical to the
  Python fold.  ``fold_runs`` takes the proof once over the whole
  column (it bounds every run) and reduces all runs with one
  ``np.add.reduceat``.  Arrays that fail the proof (and all integer
  products, whose bound degrades multiplicatively) take the pure path,
  which is exact at any magnitude.
* Selection kernels (Max/Min) return actual stream elements; their
  segmented fold reduces only int64 columns in numpy, where equal
  values are indistinguishable and the prefer-newer tie rule therefore
  holds trivially (a float column has ``0.0``/``-0.0`` ties and NaNs,
  so it takes the pure body).
"""

from __future__ import annotations

from array import array as _stdarray
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernels import BatchKernel
from repro.operators.base import Agg, AggregateOperator

try:  # pragma: no cover - exercised through HAS_NUMPY both ways
    import numpy as _np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None
    HAS_NUMPY = False


def as_ndarray(values: Any) -> Optional[Any]:
    """Zero-copy ndarray view of ``values``, or ``None``.

    ndarrays pass through; 1-D int64 (``'q'``) and float64 (``'d'``)
    memoryviews — the value columns the shm transport decodes straight
    out of its rings — and the equivalent ``array('q')``/``array('d')``
    buffers are wrapped with ``np.frombuffer``, which shares the
    underlying buffer.  Anything else (lists,
    sliced-with-step views, other formats) returns ``None`` and takes
    the pure path.
    """
    if isinstance(values, _np.ndarray):
        return values
    if isinstance(values, memoryview) and values.ndim == 1:
        try:
            if values.format == "q":
                return _np.frombuffer(values, dtype=_np.int64)
            if values.format == "d":
                return _np.frombuffer(values, dtype=_np.float64)
        except ValueError:  # pragma: no cover - non-contiguous view
            return None
    if type(values) is _stdarray:
        # Zero-copy via the buffer protocol, same as the memoryviews.
        if values.typecode == "q":
            return _np.frombuffer(values, dtype=_np.int64)
        if values.typecode == "d":
            return _np.frombuffer(values, dtype=_np.float64)
    return None


def _float_array(values: Any) -> Optional[Any]:
    """Float ndarray view of ``values`` if one is free, else ``None``.

    Truthy exactly when ``values`` is worth reducing in numpy: a float
    ndarray, or a float64 memoryview column viewed via
    ``np.frombuffer`` without copying.
    """
    array = as_ndarray(values)
    if array is not None and array.dtype.kind == "f":
        return array
    return None


_I64_LIMIT = 1 << 63

#: Below this many elements the boxed builtin ``sum`` beats numpy: the
#: int fast path pays fixed call overhead (``frombuffer`` + the
#: min/max overflow proof + the reduction) of several microseconds,
#: which only amortises on wide columns.  Slice-run folds in the
#: sharded service are often a few dozen records, so the floor matters.
_MIN_INT_COLUMN = 256


def _int_array(values: Any) -> Optional[Any]:
    """Wide int64 ndarray view of ``values``, or ``None``.

    Narrower integer dtypes take the pure path: their elementwise
    products and segmented sums would wrap in the narrow type, outside
    what the int64 overflow proofs below cover.
    """
    array = as_ndarray(values)
    if (
        array is not None
        and array.dtype == _np.int64
        and array.size >= _MIN_INT_COLUMN
    ):
        return array
    return None


def _abs_bound(array: Any) -> int:
    """``max(|x|)`` of an int array as an exact Python int.

    Computed from min/max (not ``np.abs``, whose ``abs(INT64_MIN)``
    wraps negative) so the overflow proofs below stay sound at the
    extremes of the i64 range.
    """
    return max(-int(array.min()), int(array.max()))


def _int_sum_terms(values: Any) -> Optional[Any]:
    """The int column itself when its sums provably cannot wrap.

    Any partial sum over any subset is bounded by ``size * max|x|``;
    when that product stays below ``2**63`` an int64 reduction — of the
    whole column or of any of its runs — cannot wrap at any
    intermediate step, and since integer addition is associative and
    exact the result is bit-identical to the pure Python fold.
    ``None`` when the column is not a wide int64 one or the proof fails.
    """
    array = _int_array(values)
    if array is None or _abs_bound(array) * array.size >= _I64_LIMIT:
        return None
    return array


def _int_square_terms(values: Any) -> Optional[Any]:
    """The int column's squares when their sums provably cannot wrap.

    Same proof shape as :func:`_int_sum_terms` with the per-term bound
    squared: ``size * max|x|**2 < 2**63`` covers both the elementwise
    squaring and every partial sum of the reduction.
    """
    array = _int_array(values)
    if array is None:
        return None
    bound = _abs_bound(array)
    if bound * bound * array.size >= _I64_LIMIT:
        return None
    return array * array


class _DelegatingKernel(BatchKernel):
    """Base for numpy kernels: wraps the pure kernel as the fallback."""

    def __init__(self, operator: AggregateOperator, pure: BatchKernel):
        super().__init__(operator)
        self._pure = pure

    def lift_many(self, values: Sequence[Any]) -> Sequence[Agg]:
        return self._pure.lift_many(values)

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        return self._pure.fold(values, seed)

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        return self._pure.fold_aggs(aggs, seed)

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        return self._pure.fold_runs(values, bounds, seed)

    def suffix_chain(
        self, values: Sequence[Any]
    ) -> List[Tuple[int, Agg]]:
        return self._pure.suffix_chain(values)


class NumpySumKernel(_DelegatingKernel):
    """Sum via one C reduction: floats always, ints behind the proof."""

    exact = False  # pairwise float summation reassociates

    #: ``values`` → the int64 terms whose sums are proven not to wrap.
    _int_terms = staticmethod(_int_sum_terms)

    def is_exact_for(self, values: Sequence[Any]) -> bool:
        # Everything that is not a float array/column is exact here:
        # the int fast path only engages with its no-overflow proof,
        # and anything else delegates to the exact pure kernel.
        return _float_array(values) is None

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        floats = _float_array(values)
        if floats is not None:
            return seed + _np.add.reduce(floats).item()
        terms = self._int_terms(values)
        if terms is not None:
            return seed + int(_np.add.reduce(terms))
        return self._pure.fold(values, seed)

    fold_aggs = fold

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        # An int seed only: ``float_seed + total`` is not the chain
        # ``((float_seed + v₁) + v₂) + …``.
        if type(seed) is int and len(bounds) > 1:
            terms = self._int_terms(values)
            if terms is not None:
                totals = _np.add.reduceat(
                    terms[: bounds[-1]], bounds[:-1]
                ).tolist()
                totals[0] += seed
                return totals
        return self._pure.fold_runs(values, bounds, seed)


class NumpySumOfSquaresKernel(NumpySumKernel):
    """Sum of squares: floats always, ints behind the squared proof."""

    _int_terms = staticmethod(_int_square_terms)

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        floats = _float_array(values)
        if floats is not None:
            return seed + _np.add.reduce(floats * floats).item()
        terms = self._int_terms(values)
        if terms is not None:
            return seed + int(_np.add.reduce(terms))
        return self._pure.fold(values, seed)

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        floats = _float_array(aggs)
        if floats is not None:
            return seed + _np.add.reduce(floats).item()
        terms = _int_sum_terms(aggs)
        if terms is not None:
            return seed + int(_np.add.reduce(terms))
        return self._pure.fold_aggs(aggs, seed)


class NumpyProductKernel(_DelegatingKernel):
    """Product over float arrays: reduce the nonzero factors."""

    exact = False

    def is_exact_for(self, values: Sequence[Any]) -> bool:
        return _float_array(values) is None

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        floats = _float_array(values)
        if floats is not None:
            nonzero = floats[floats != 0]
            return (
                seed[0] * _np.multiply.reduce(nonzero).item(),
                seed[1] + int(floats.size - nonzero.size),
            )
        return self._pure.fold(values, seed)


class _NumpySelectionKernel(_DelegatingKernel):
    """Max/Min over numeric arrays.

    Folds return actual array elements (unboxed with ``item()``), so
    these stay exact; the suffix chain is the vectorized form of the
    strict suffix-extrema scan.
    """

    _reduce_name = "maximum"
    _strictly_better = staticmethod(lambda a, b: a > b)

    def _numeric(self, values: Any) -> Optional[Any]:
        array = as_ndarray(values)
        if array is not None and array.dtype.kind in ("f", "i", "u"):
            return array
        return None

    def fold(self, values: Sequence[Any], seed: Agg) -> Agg:
        array = self._numeric(values)
        if array is not None and len(array):
            ufunc = getattr(_np, self._reduce_name)
            return self._combine(seed, ufunc.reduce(array).item())
        return self._pure.fold(values, seed)

    def fold_aggs(self, aggs: Sequence[Agg], seed: Agg) -> Agg:
        return self.fold(aggs, seed)

    def fold_runs(
        self, values: Sequence[Any], bounds: Sequence[int], seed: Agg
    ) -> List[Agg]:
        array = _int_array(values) if len(bounds) > 1 else None
        if array is None:
            return self._pure.fold_runs(values, bounds, seed)
        ufunc = getattr(_np, self._reduce_name)
        best = ufunc.reduceat(array[: bounds[-1]], bounds[:-1])
        return self.seed_runs(best.tolist(), seed)

    def suffix_chain(
        self, values: Sequence[Any]
    ) -> List[Tuple[int, Agg]]:
        array = self._numeric(values)
        if array is None or len(array) < 2:
            return self._pure.suffix_chain(values)
        ufunc = getattr(_np, self._reduce_name)
        # suffix_best[i] = extremum of values[i:]; an element survives
        # iff it strictly beats the extremum of everything after it
        # (strictness = the operators' prefer-newer tie rule).
        suffix_best = ufunc.accumulate(array[::-1])[::-1]
        keep = _np.empty(len(array), dtype=bool)
        keep[-1] = True
        keep[:-1] = self._strictly_better(array[:-1], suffix_best[1:])
        indices = _np.flatnonzero(keep)
        return list(
            zip(indices.tolist(), array[indices].tolist())
        )


class NumpyMaxKernel(_NumpySelectionKernel):
    """Max over numeric arrays: ``np.maximum`` reduce/accumulate."""

    _reduce_name = "maximum"
    _strictly_better = staticmethod(lambda a, b: a > b)


class NumpyMinKernel(_NumpySelectionKernel):
    """Min over numeric arrays: ``np.minimum`` reduce/accumulate."""

    _reduce_name = "minimum"
    _strictly_better = staticmethod(lambda a, b: a < b)


#: Registry name → numpy kernel class layered over the pure factory.
_KERNELS = {
    "sum": NumpySumKernel,
    "sum_of_squares": NumpySumOfSquaresKernel,
    "product": NumpyProductKernel,
    "max": NumpyMaxKernel,
    "min": NumpyMinKernel,
}


def register(
    register_factory: Callable[..., None],
    existing: Dict[str, Callable[[AggregateOperator], Optional[BatchKernel]]],
) -> None:
    """Layer numpy kernels over the already-registered pure factories."""
    for name, kernel_class in _KERNELS.items():
        pure_factory = existing.get(name)
        if pure_factory is None:  # pragma: no cover - defensive
            continue
        register_factory(name, _factory(kernel_class, pure_factory))


def _factory(
    kernel_class: type,
    pure_factory: Callable[[AggregateOperator], Optional[BatchKernel]],
) -> Callable[[AggregateOperator], Optional[BatchKernel]]:
    def build(operator: AggregateOperator) -> Optional[BatchKernel]:
        pure = pure_factory(operator)
        if pure is None:  # the pure type guard declined; so do we
            return None
        return kernel_class(operator, pure)

    return build
