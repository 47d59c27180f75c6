"""Thread-safe submit/poll seam over :class:`AggregationService`.

:class:`AggregationService` is single-threaded by design: its router,
merger, and transport bookkeeping are plain Python state.  The network
serving layer, however, drives the service from executor threads of an
asyncio event loop (service calls can block — ``block`` backpressure
waits for shard-queue capacity — so they must not run on the loop
itself).  :class:`ServiceGateway` is the seam between the two worlds:
every entry point takes one re-entrant lock, so any number of threads
(or one event loop with a thread-pool executor) can share a service
without interleaving its internals mid-operation.

The gateway adds no policy of its own — admission control, shedding,
and retries live in :mod:`repro.net.server` — but it does keep the
cheap counters a STATS reply needs (records/batches submitted through
it, poison-quarantine count) so the server can report without closing
the service.
"""

from __future__ import annotations

import threading
from collections.abc import Sized
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.service import AggregationService, ServiceResult


class ServiceGateway:
    """Serialise concurrent access to one :class:`AggregationService`.

    Args:
        service: The wrapped (open) service.  The gateway owns its
            lifecycle from here on: close it through
            :meth:`close`/:meth:`abort`, not directly.
    """

    def __init__(self, service: AggregationService):
        self._service = service
        self._lock = threading.RLock()
        self._closed = False
        self._result: Optional[ServiceResult] = None
        self._records_submitted = 0
        self._batches_submitted = 0

    # -- ingestion --------------------------------------------------

    def submit(
        self, key: Any, value: Any, trace_id: Optional[int] = None
    ) -> int:
        """Ingest one keyed record; returns 1 (records accepted)."""
        return self.submit_many([(key, value)], trace_id)

    def submit_many(
        self,
        records: Iterable[Tuple[Any, Any]],
        trace_id: Optional[int] = None,
    ) -> int:
        """Ingest ``(key, value)`` pairs atomically w.r.t. other callers.

        Returns the number of records handed to the service.  Blocks
        while the service's own backpressure blocks; callers that must
        not stall (event loops) should invoke this from an executor
        thread.  ``trace_id`` attributes the whole batch to one
        telemetry trace.  A sized input (a list, the wire's parsed
        rows) is counted and handed on as it is; only an unsized
        iterable is materialised first.
        """
        batch = records if isinstance(records, Sized) else list(records)
        return self._ingest(
            self._service.submit_many, len(batch), batch, trace_id
        )

    def submit_event(
        self,
        key: Any,
        value: Any,
        timestamp: float,
        trace_id: Optional[int] = None,
    ) -> int:
        """Ingest one event-timestamped record (``"time"`` mode)."""
        return self.submit_events([(key, timestamp, value)], trace_id)

    def submit_events(
        self,
        records: Iterable[Tuple[Any, float, Any]],
        trace_id: Optional[int] = None,
    ) -> int:
        """Ingest ``(key, timestamp, value)`` triples atomically.

        Returns the number of records handed to the service.  Raises
        :class:`~repro.errors.LateRecordError` under the service's
        ``"raise"`` late policy; under ``"drop"``/``"side_output"``
        late records are still counted as submitted here (the service
        accounts for them in its late-record counters).
        """
        batch = records if isinstance(records, Sized) else list(records)
        return self._ingest(
            self._service.submit_events, len(batch), batch, trace_id
        )

    def _ingest(self, submit, count: int, *args) -> int:
        """The one ingest body: run a service submit under the lock and
        count its records as one batch."""
        with self._lock:
            self._require_open()
            submit(*args)
            self._records_submitted += count
            self._batches_submitted += 1
        return count

    # -- answers ----------------------------------------------------

    def poll(self) -> List[Any]:
        """Answers released since the last poll (any caller's poll)."""
        with self._lock:
            self._require_open()
            return self._service.poll()

    def poll_traced(self) -> List[Tuple[Any, Optional[int]]]:
        """Released answers paired with their submission trace ids."""
        with self._lock:
            self._require_open()
            return self._service.poll_traced()

    # -- telemetry --------------------------------------------------

    def attach_telemetry(self, telemetry: Any) -> None:
        """Point the wrapped service at a telemetry hub (see service)."""
        with self._lock:
            self._service.attach_telemetry(telemetry)

    # -- introspection ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Cheap live-stats view (no flush, no worker shutdown).

        Keys: ``records_submitted`` / ``batches_submitted`` (through
        this gateway), ``mode``, ``num_shards``, ``dead_letters``
        (poison-quarantine count so far), ``failed_shards``,
        ``transport`` (live data-plane counters — plane name, frame
        mix, encode/ring-wait/decode seconds), ``event_time`` (the
        watermark/lateness snapshot in ``"time"`` mode, else ``None``),
        and ``closed``.
        """
        with self._lock:
            service = self._service
            return {
                "records_submitted": self._records_submitted,
                "batches_submitted": self._batches_submitted,
                "mode": service.mode,
                "num_shards": service.num_shards,
                "dead_letters": len(service.dead_letters),
                "failed_shards": sorted(service.failed_shards()),
                "transport": service.transport_stats(),
                "event_time": service.event_time_stats(),
                "closed": self._closed,
            }

    @property
    def closed(self) -> bool:
        """Whether the underlying service has been closed or aborted.

        Reads the flag without the lock: one attribute read needs none,
        and an event loop asking never waits behind a running call.
        """
        return self._closed

    # -- shutdown ---------------------------------------------------

    def close(self, timeout: float = 60.0) -> ServiceResult:
        """Flush and close the service; idempotent.

        The first call drains the service and caches its
        :class:`~repro.service.service.ServiceResult`; later calls
        return the same result, so a DRAIN race between two
        connections cannot double-close the service.
        """
        with self._lock:
            if self._result is not None:
                return self._result
            if self._closed:
                raise ServiceError(
                    "service was aborted; no result to return"
                )
            self._closed = True
            self._result = self._service.close(timeout)
            return self._result

    def abort(self) -> None:
        """Hard-stop the service, abandoning in-flight work."""
        with self._lock:
            if self._result is not None or self._closed:
                self._closed = True
                return
            self._closed = True
            self._service.abort()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError(
                "gateway is closed (service drained or aborted)"
            )
