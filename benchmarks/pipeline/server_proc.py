"""The server side of the socket workloads, as its own process.

An inline two-shard :class:`AggregationService` behind an
:class:`AggregationServer` with the library's default admission
settings, on an ephemeral loopback port.  Prints ``PORT <n>`` once it
is accepting, then serves until its stdin closes (the harness closes
the pipe to stop it; a harness that dies closes it too, so no server
is ever left behind) or it receives SIGTERM.

Running the server in a separate process keeps its CPU and memory
apart from the load generator's, which is how the benchmark reports
them.

The server calibrates itself: every ``loadgen.SERVER_SPIN_PERIOD``
seconds its event-loop thread runs a short calibration spin, and when
it stops it prints ``SPINS <json>``: ``(perf_counter_ns, ns per
iteration)`` pairs.  The open loop cannot pause for a spin of the
harness's, and what the server's core gives it changes by the second;
a spin in the serving thread reads that core at that moment without
competing with the server for it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.net.server import AggregationServer
    from repro.operators.registry import get_operator
    from repro.service.service import AggregationService
    from repro.windows.query import Query

    from estimators import calibration_spin
    from loadgen import SERVER_SPIN_ITERATIONS, SERVER_SPIN_PERIOD
    from workloads import COUNT_QUERIES

    service = AggregationService(
        [Query(*spec) for spec in COUNT_QUERIES],
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=256,
    )
    server = AggregationServer(service)

    #: ``(perf_counter_ns when it began, ns per iteration)`` per spin.
    spins = []

    async def calibrate() -> None:
        while True:
            await asyncio.sleep(SERVER_SPIN_PERIOD)
            began = time.perf_counter_ns()
            spins.append((began, calibration_spin(iterations=SERVER_SPIN_ITERATIONS)))

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)

        def until_stdin_closes() -> None:
            sys.stdin.buffer.read()
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=until_stdin_closes, daemon=True).start()
        await server.start()
        print(f"PORT {server.port}", flush=True)
        calibrating = asyncio.ensure_future(calibrate())
        await stop.wait()
        calibrating.cancel()
        await server.stop()
        print("SPINS " + json.dumps(spins), flush=True)

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
