"""repro — a reproduction of SlickDeque (Shein et al., EDBT 2018).

High-throughput, low-latency incremental sliding-window aggregation:
the SlickDeque algorithms (invertible and non-invertible processing),
every baseline the paper compares against (Naive, FlatFAT, B-Int,
FlatFIT, TwoStacks, DABA), the window/partial-aggregation substrate
(Panes, Pairs, Cutty, shared multi-query plans), a small stream engine,
and synthetic DEBS12-style workloads.  The harness that regenerates each
figure and table of the paper's evaluation lives outside the package,
in ``benchmarks/paper/``.

Quickstart::

    from repro import Query, SharedSlickDeque, get_operator

    acqs = [Query(range_size=6, slide=2), Query(range_size=8, slide=4)]
    engine = SharedSlickDeque(acqs, get_operator("max"))
    for position, query, answer in engine.run(stream_of_numbers):
        print(position, query.name, answer)

Every name of ``__all__`` resolves on first access: ``import repro``
loads no other module, and a process that only builds a ``StreamEngine`` never
loads the service or network stack.

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from importlib import import_module


def _lazy_exports(namespace, exports):
    """A package's re-exports, resolved on first access (PEP 562).

    ``exports`` maps each module, relative to the package whose
    ``globals()`` is ``namespace``, to the names it supplies.  Returns
    that package's ``__getattr__`` and ``__dir__`` and its ``__all__``:
    every name, in table order.  A resolved name is stored in the
    package namespace, so only its first access runs the import.
    """
    package = namespace["__name__"]
    source = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name):
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__, list(source)


__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".operators": (
        "AggregateOperator",
        "InvertibleOperator",
        "CountingOperator",
        "get_operator",
        "available_operators",
    ),
    ".windows": (
        "Query",
        "build_shared_plan",
        "TimeQuery",
        "TimeWindowEngine",
        "AcqSpec",
        "CompatibleSharedEngine",
    ),
    ".core": (
        "SlickDequeInv",
        "SlickDequeInvMulti",
        "SlickDequeNonInv",
        "SlickDequeNonInvMulti",
        "make_slickdeque",
        "make_slickdeque_multi",
        "SharedSlickDeque",
    ),
    ".baselines": (
        "SlidingAggregator",
        "MultiQueryAggregator",
        "RecalcAggregator",
        "NaiveAggregator",
        "FlatFATAggregator",
        "BIntAggregator",
        "FlatFITAggregator",
        "TwoStacksAggregator",
        "DABAAggregator",
    ),
    ".registry": ("get_algorithm", "available_algorithms"),
    ".service": (
        "AggregationService",
        "ServiceGateway",
        "ServiceResult",
        "FaultInjector",
    ),
    ".stream.sink": ("DeadLetter", "DeadLetterSink"),
    ".net": (
        "AggregationServer",
        "ServerThread",
        "AggregationClient",
        "AsyncAggregationClient",
    ),
    ".telemetry": ("MetricsRegistry", "Telemetry", "Tracer", "mint_trace_id"),
    ".errors": (
        "ReproError",
        "InvalidQueryError",
        "InvalidOperatorError",
        "WindowStateError",
        "OutOfOrderError",
        "LateRecordError",
        "PlanError",
        "UnknownOperatorError",
        "PoisonRecordError",
        "ShardFailedError",
        "ProtocolError",
        "ServerOverloadedError",
        "ClientTimeoutError",
        "TelemetryError",
    ),
})
__all__.insert(0, "__version__")
