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

from repro.service.chaos import (
    ChaosEvent,
    FaultInjector,
    PoisonValue,
    WorkerFaultPlan,
    poison,
)
from repro.service.gateway import ServiceGateway
from repro.service.merge import (
    GlobalMerger,
    PerKeyCollator,
    check_mergeable,
)
from repro.service.partition import (
    BACKPRESSURE_POLICIES,
    Batch,
    Router,
    drop_records,
    shard_of,
    stable_hash,
    thin_batch,
)
from repro.service.service import (
    AggregationService,
    ServiceResult,
    ServiceStats,
    ShardStats,
)
from repro.service.shard import (
    POISON_POLICIES,
    SHARD_MODES,
    ShardConfig,
    ShardOutput,
    ShardState,
    shard_main,
)
from repro.service.slices import SliceClock
from repro.service.supervisor import InlineTransport, Supervisor

__all__ = [
    "AggregationService",
    "ServiceGateway",
    "ServiceResult",
    "ServiceStats",
    "ShardStats",
    "Router",
    "Batch",
    "stable_hash",
    "shard_of",
    "drop_records",
    "thin_batch",
    "BACKPRESSURE_POLICIES",
    "SliceClock",
    "ShardConfig",
    "ShardState",
    "ShardOutput",
    "shard_main",
    "SHARD_MODES",
    "POISON_POLICIES",
    "ChaosEvent",
    "FaultInjector",
    "PoisonValue",
    "WorkerFaultPlan",
    "poison",
    "GlobalMerger",
    "PerKeyCollator",
    "check_mergeable",
    "Supervisor",
    "InlineTransport",
]
