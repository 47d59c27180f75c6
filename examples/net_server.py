#!/usr/bin/env python3
"""Serving over the network: the sharded service behind a socket.

Starts an :class:`~repro.net.server.AggregationServer` on an ephemeral
localhost port (four inline shards, shed-style admission control),
drives it with the synchronous client — pipelined SUBMIT_BATCH bursts,
a mid-stream POLL, a STATS snapshot — then drains and verifies the
over-the-wire answers against a single-process
:class:`~repro.stream.engine.StreamEngine` run of the same records.

With ``--metrics-port N`` the run also serves the server's telemetry
hub in the Prometheus text exposition format on
``http://127.0.0.1:N/metrics`` for its duration (``0`` picks an
ephemeral port) — per-stage latency histograms for decode, admission,
submit, shard fold, merge, and reply; see ``docs/observability.md``.

Run:  python examples/net_server.py   (or: make serve)
"""

from __future__ import annotations

import argparse
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import (
    AggregationClient,
    AggregationServer,
    AggregationService,
    Query,
    ServerThread,
    get_operator,
    mint_trace_id,
)
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


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serve ``/metrics`` from the aggregation server's telemetry hub."""

    server_version = "repro-metrics/1.0"
    aggregation_server: AggregationServer = None  # set per HTTP server

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") not in ("", "/metrics"):
            self.send_error(404, "only /metrics is served")
            return
        body = self.aggregation_server.render_metrics().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        """Silence per-request stderr logging."""


def start_metrics_server(
    server: AggregationServer, port: int
) -> ThreadingHTTPServer:
    """Serve ``server``'s metrics over HTTP on a daemon thread."""
    handler = type(
        "_BoundMetricsHandler",
        (_MetricsHandler,),
        {"aggregation_server": server},
    )
    http_server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    threading.Thread(
        target=http_server.serve_forever,
        name="repro-metrics-http",
        daemon=True,
    ).start()
    return http_server


def main(metrics_port: int = None) -> None:
    records = readings(1_200)

    print("single-process reference ...")
    sink = CollectSink()
    StreamEngine(QUERIES, get_operator("sum"), sinks=[sink]).run(
        value for _, value in records
    )
    reference = sink.answers
    print(f"  {len(reference)} answers from {len(records)} readings")

    print("\nstarting the TCP server (ephemeral port, 4 inline "
          "shards, shed admission) ...")
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=4,
        transport="inline",
        batch_size=32,
    )
    server = AggregationServer(
        service,
        max_inflight_records=4096,
        admission_policy="shed",
    )
    metrics_http = None
    with ServerThread(server) as thread:
        print(f"  listening on 127.0.0.1:{thread.port}")
        if metrics_port is not None:
            metrics_http = start_metrics_server(server, metrics_port)
            actual = metrics_http.server_address[1]
            print(f"  metrics on http://127.0.0.1:{actual}/metrics")
        with AggregationClient("127.0.0.1", thread.port) as client:
            # The last 50 records go in a traced frame of their own.
            head, tail = records[:-50], records[-50:]
            batches = [
                head[start : start + 100]
                for start in range(0, len(head), 100)
            ]
            print(f"\npipelining {len(batches)} SUBMIT_BATCH frames "
                  f"({len(head)} records) ...")
            accepted = client.submit_batches(batches)
            print(f"  accepted per batch: {accepted[:6]} ...")

            trace_id = mint_trace_id()
            client.submit_batch(tail, trace_id=trace_id)
            print(f"  traced the last {len(tail)} records under "
                  f"trace {trace_id:#x}; reply echoed "
                  f"{client.last_reply_trace_id:#x}")

            polled = client.poll()
            print(f"  POLL released {len(polled)} answers so far; "
                  "first three:")
            for position, query, answer in polled[:3]:
                print(f"    t={position:>4}  {query.name:<6} {answer}")

            stats = client.stats()["server"]
            latency = stats["submit_latency"]
            print("\nSTATS:")
            print(f"  accepted {stats['accepted_records']} records in "
                  f"{stats['accepted_batches']} batches, "
                  f"shed {stats['shed_records']}")
            print(f"  ingest throughput "
                  f"{stats['throughput_rps']:,.0f} records/s")
            if latency:
                print(f"  submit latency median "
                      f"{latency['median'] * 1e3:.2f} ms, p75 "
                      f"{latency['p75'] * 1e3:.2f} ms "
                      f"({latency['count']} submits)")

            print("\nDRAIN: flushing the service ...")
            answers, final = client.drain()
            print(f"  {len(answers)} total answers; service folded "
                  f"{final['stats']['records_processed']} records on "
                  f"{len(final['stats']['failed_shards']) or 'no'} "
                  "failed shards")

        print("\ntelemetry (Prometheus text exposition, excerpt):")
        exposition = server.render_metrics()
        for line in exposition.splitlines():
            if line.endswith("_count") or "_count " in line or (
                line.startswith("# TYPE")
            ):
                print(f"  {line}")
    if metrics_http is not None:
        metrics_http.shutdown()

    matches = answers == reference
    print(f"\nover-the-wire answers match the single-process run: "
          f"{matches}")
    if not matches:
        raise SystemExit(1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Serve the sharded service over TCP and verify "
        "its answers against a single-process run."
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve Prometheus-format metrics on "
        "http://127.0.0.1:PORT/metrics (0 = ephemeral port)",
    )
    main(parser.parse_args().metrics_port)
