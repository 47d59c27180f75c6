#!/usr/bin/env python3
"""Scaling out: the sharded multi-process aggregation service.

Keyed sensor readings are cut into contiguous frames dealt
round-robin across four worker processes, each running the
shard-local half of a shared SlickDeque pipeline: each frame becomes
one partial piece per slice it touches, and a cross-shard merger
combines a slice's pieces in stream order into answers identical to a
single-process run.  Midway through the stream one worker is killed
with SIGKILL — a shard holds nothing between frames, so the
supervisor starts a fresh worker, sends it the frames the dead one had
not acknowledged, and the final answers still match the
single-process reference exactly.

Run:  python examples/sharded_service.py
"""

from __future__ import annotations

import os
import signal
import time

from repro import AggregationService, Query, get_operator
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink

QUERIES = [Query(30, 10, name="short"), Query(60, 20, name="long")]
SENSORS = [f"sensor-{i}" for i in range(9)]


def readings(count: int):
    """Deterministic keyed integer readings (ints merge exactly)."""
    return [
        (SENSORS[i % len(SENSORS)], (i * 53 + 11) % 401 - 200)
        for i in range(count)
    ]


def main() -> None:
    records = readings(1_200)

    print("single-process reference ...")
    sink = CollectSink()
    StreamEngine(QUERIES, get_operator("sum"), sinks=[sink]).run(
        value for _, value in records
    )
    reference = sink.answers
    print(f"  {len(reference)} answers from {len(records)} readings")

    print("\nsharded run: 4 worker processes, frames of 32")
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=4,
        batch_size=32,
    )
    midpoint = len(records) // 2
    service.submit_many(records[:midpoint])
    service.poll()

    victim = service.shard_pids()[1]
    print(f"  !! killing worker for shard 1 (pid {victim}) with SIGKILL")
    os.kill(victim, signal.SIGKILL)
    time.sleep(0.05)

    service.submit_many(records[midpoint:])
    result = service.close()

    stats = result.stats
    restores = [shard.restores for shard in stats.shards]
    print(f"  shard workers respawned: {restores}")
    print(f"  records processed: {stats.records_processed:,} "
          f"(dropped: {stats.dropped_records})")
    for shard in stats.shards:
        print(f"    shard {shard.shard_id}: {shard.records:>4} records "
              f"in {shard.batches} frames")

    print("\nsharded answers identical to single-process run:",
          result.answers == reference)
    for position, query, answer in result.answers[-3:]:
        print(f"  tuple {position:>5}  {query.name:<6} = {answer}")


if __name__ == "__main__":
    main()
