"""Sharded multi-process aggregation service.

Scale-out layer over the single-process engine: keyed records are
hash-partitioned across N worker processes (micro-batched, with
explicit backpressure), each worker runs the shard-local part of the
shared SlickDeque pipeline, and a cross-shard merger recombines partial
aggregates into answers identical to a single-process run — for
operators whose algebra makes that sound — while a supervisor restores
killed workers from checkpoints and replays their in-flight batches.

Public surface:

* :class:`AggregationService` — the facade (``submit``/``poll``/
  ``close``), plus :class:`ServiceResult`/:class:`ServiceStats`.
* :class:`Router`, :class:`Batch`, :func:`stable_hash`,
  :func:`shard_of` — partitioning and batch framing.
* :class:`SliceClock` — global-position slice arithmetic.
* :class:`ShardConfig`, :class:`ShardState` — the worker pipeline.
* :class:`GlobalMerger`, :class:`PerKeyCollator`,
  :func:`check_mergeable` — cross-shard combination.
* :class:`Supervisor`, :class:`InlineTransport` — worker lifecycle.
* :class:`ServiceGateway` — thread-safe submit/poll seam (the
  :mod:`repro.net` server's entry point into the service).
* :class:`FaultInjector`, :class:`WorkerFaultPlan`, :func:`poison` —
  deterministic fault injection for chaos testing.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".chaos": (
        "ChaosEvent",
        "FaultInjector",
        "PoisonValue",
        "WorkerFaultPlan",
        "poison",
    ),
    ".gateway": ("ServiceGateway",),
    ".merge": ("GlobalMerger", "PerKeyCollator", "check_mergeable"),
    ".partition": (
        "BACKPRESSURE_POLICIES",
        "Batch",
        "Router",
        "drop_records",
        "shard_of",
        "stable_hash",
        "thin_batch",
    ),
    ".service": (
        "AggregationService",
        "ServiceResult",
        "ServiceStats",
        "ShardStats",
    ),
    ".shard": (
        "POISON_POLICIES",
        "SHARD_MODES",
        "ShardConfig",
        "ShardOutput",
        "ShardState",
        "shard_main",
    ),
    ".slices": ("SliceClock",),
    ".supervisor": ("InlineTransport", "Supervisor"),
})
