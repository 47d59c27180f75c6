"""Aggregate operators: the algebraic framework of paper Section 3.1.

Public surface:

* :class:`AggregateOperator` / :class:`InvertibleOperator` — the
  operator protocol all window algorithms are written against.
* Distributive invertible ops: :class:`SumOperator`,
  :class:`CountOperator`, :class:`ProductOperator`, ...
* Distributive non-invertible (selection) ops: :class:`MaxOperator`,
  :class:`MinOperator`, :class:`ArgMaxOperator`, ...
* Algebraic compositions: :func:`mean_operator`,
  :func:`stddev_operator`, :func:`range_operator`, ...
* :class:`CountingOperator` — the §4.1 operation-count instrumentation.
* :func:`get_operator` — name-based registry lookup.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".algebraic": (
        "ComposedOperator",
        "InvertibleComposedOperator",
        "compose",
        "geometric_mean_operator",
        "mean_operator",
        "range_operator",
        "stddev_operator",
        "variance_operator",
    ),
    ".base": (
        "Agg",
        "AggregateOperator",
        "InvertibleOperator",
        "require_invertible",
        "require_selection",
    ),
    ".boolean": (
        "BitAndOperator",
        "BitOrOperator",
        "BoolAllOperator",
        "BoolAnyOperator",
    ),
    ".instrumented": ("CountingOperator", "SlideOpRecorder"),
    ".invertible": (
        "CountOperator",
        "IntProductOperator",
        "ProductOperator",
        "SumOfSquaresOperator",
        "SumOperator",
    ),
    ".noninvertible": (
        "NEG_INF",
        "POS_INF",
        "AlphabeticalMaxOperator",
        "ArgMaxOperator",
        "ArgMinOperator",
        "MaxOperator",
        "MinOperator",
        "argmax_of_cosine",
        "argmin_of_square",
    ),
    ".positional": ("FirstOperator", "LastOperator"),
    ".views": (
        "ComponentSlice",
        "PartialView",
        "RawView",
        "partial_view",
        "raw_view",
    ),
    ".registry": ("available_operators", "get_operator", "register_operator"),
})
