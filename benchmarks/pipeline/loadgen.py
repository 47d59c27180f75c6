"""The load generator of the socket workloads.

One harness process, one connection, two threads: the caller's thread
writes request frames (:func:`send_closed_loop` or
:func:`send_open_loop`) and a :class:`ReplyReader` thread reads the
replies and stamps each ``ANSWERS`` frame on arrival.  The server
runs in its own process (:class:`ServerProcess`).

Closed loop: at most :data:`WINDOW` ``SUBMIT_BATCH`` frames are
unacknowledged at any time, so a slow server receives less load.
Between segments the sender lets the window drain, runs a calibration
spin with nothing in flight, and reopens the window.

Open loop: batch ``i`` is *due* at a time fixed before the run starts
and is sent then, whatever the server is doing.  Latency is counted
from the due time, so a stall that delays later batches is charged to
them, and how late the generator itself ran is reported as lag.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time
from array import array
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Unacknowledged SUBMIT_BATCH frames allowed in the closed loop.
WINDOW = 16
#: The closed loop sends one POLL after this many SUBMIT_BATCH frames.
POLL_EVERY = 4
#: The open loop's first batch is due this long after the sender starts.
OPEN_LOOP_LEAD_NS = 50_000_000
#: Seconds any single wait may last before the run is abandoned.
WAIT_LIMIT = 30.0
#: The server calibrates itself: every this many seconds its own
#: event-loop thread runs a calibration spin of this many iterations
#: (~1 ms), so a reading is of the server's CPU at that moment, with
#: the server itself not competing for it.
SERVER_SPIN_PERIOD = 0.05
SERVER_SPIN_ITERATIONS = 25_000

_SUBMIT, _POLL, _STATS = "submit", "poll", "stats"


class ServerProcess:
    """``server_proc.py`` as a child process, stopped by closing stdin."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "server_proc.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.pid = self._process.pid
        #: ``(perf_counter_ns, ns per iteration)`` of the server's own
        #: calibration spins, once it has stopped.
        self.spins: List[Tuple[int, float]] = []
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        stdout = self._process.stdout
        ready, _, _ = select.select([stdout], [], [], WAIT_LIMIT)
        line = stdout.readline() if ready else b""
        if not line.startswith(b"PORT "):
            raise RuntimeError(f"server did not announce a port: {line!r}")
        return int(line.split()[1])

    def stop(self) -> None:
        """Close stdin, wait for a clean exit, escalate if there is none.

        A server that exits cleanly leaves its calibration spins in
        :attr:`spins`.
        """
        process = self._process
        try:
            # With nothing to send, this closes stdin and reads to EOF.
            stdout, _ = process.communicate(timeout=WAIT_LIMIT)
        except subprocess.TimeoutExpired:
            process.kill()
            stdout, _ = process.communicate()
        if stdout.startswith(b"SPINS "):
            self.spins = json.loads(stdout[6:])


class ReplyReader(threading.Thread):
    """Read replies in request order and stamp every ANSWERS frame.

    Args:
        client: The connected :class:`AggregationClient`.
        credits: Closed-loop window semaphore, released per SUBMIT reply.
        progress: One-element list holding the batches sent so far; its
            value is kept with each arrival (open-loop backlog).
    """

    def __init__(
        self,
        client: Any,
        credits: Optional[threading.Semaphore] = None,
        progress: Sequence[int] = (0,),
    ):
        super().__init__(name="pipeline-reply-reader", daemon=True)
        self._client = client
        self._credits = credits
        self._progress = progress
        #: Request kinds in send order; the sender appends before it writes.
        self.kinds: deque = deque()
        #: ``(arrival perf_counter_ns, answers, batches sent by then)``
        #: per non-empty ANSWERS frame.
        self.arrivals: List[Tuple[int, List[Any], int]] = []
        self.accepted = 0
        self.refused = 0
        self.stats: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        from repro.net.protocol import FrameType, decode_answers

        client = self._client
        kinds = self.kinds
        now_ns = time.perf_counter_ns
        try:
            while True:
                frame_type, payload = client.read_reply()
                arrived = now_ns()
                kind = kinds.popleft()
                if kind is _SUBMIT:
                    if frame_type is FrameType.OK:
                        self.accepted += payload.get("accepted", 0)
                    else:
                        self.refused += 1
                    if self._credits is not None:
                        self._credits.release()
                elif kind is _POLL:
                    if frame_type is not FrameType.ANSWERS:
                        self.refused += 1
                        continue
                    answers = decode_answers(payload)
                    if answers:
                        self.arrivals.append((arrived, answers, self._progress[0]))
                else:
                    self.stats = payload
                    return
        except BaseException as error:  # re-raised in the sender's thread
            self.error = error
            if self._credits is not None:
                for _ in range(WINDOW):
                    self._credits.release()

    def finish(self, client: Any) -> Dict[str, Any]:
        """Send the end-marker STATS request and wait for its reply."""
        from repro.net.protocol import FrameType

        self.kinds.append(_STATS)
        client.send_frame(FrameType.STATS, None)
        self.join(WAIT_LIMIT)
        if self.error is not None:
            raise RuntimeError(f"reply reader failed: {self.error!r}")
        if self.is_alive() or self.stats is None:
            raise RuntimeError("reply reader did not see the final STATS reply")
        return self.stats


def _take(credits: threading.Semaphore, reader: ReplyReader) -> None:
    if not credits.acquire(timeout=WAIT_LIMIT) or reader.error is not None:
        raise RuntimeError(f"closed loop stalled: {reader.error!r}")


def send_closed_loop(
    client: Any,
    reader: ReplyReader,
    credits: threading.Semaphore,
    frames: Sequence[Sequence[Tuple[Any, Any]]],
    first: int,
    count: int,
    starts: array,
    ends: array,
) -> None:
    """Write frames ``first .. first + count``, at most WINDOW unanswered.

    Appends each send's start and end stamp (``perf_counter_ns``).
    """
    from repro.net.protocol import FrameType

    submit = FrameType.SUBMIT_BATCH
    poll = FrameType.POLL
    send = client.send_frame
    kinds = reader.kinds
    now_ns = time.perf_counter_ns
    for index in range(first, first + count):
        _take(credits, reader)
        kinds.append(_SUBMIT)
        starts.append(now_ns())
        send(submit, frames[index % len(frames)])
        ends.append(now_ns())
        if index % POLL_EVERY == POLL_EVERY - 1:
            kinds.append(_POLL)
            send(poll, None)


def drain_window(credits: threading.Semaphore, reader: ReplyReader) -> None:
    """Wait until no SUBMIT is unanswered (holds every credit on return)."""
    for _ in range(WINDOW):
        _take(credits, reader)


def reopen_window(credits: threading.Semaphore) -> None:
    """Give back the credits :func:`drain_window` took."""
    for _ in range(WINDOW):
        credits.release()


def send_open_loop(
    client: Any,
    reader: ReplyReader,
    frames: Sequence[Sequence[Tuple[Any, Any]]],
    due_offsets: Sequence[float],
    sent_frames: List[int],
    every: int,
    after_every: Callable[[int], None],
) -> Tuple[int, array, array]:
    """Write one batch + POLL at each due time; returns the stamps.

    ``due_offsets[i]`` is batch ``i``'s due time in seconds after the
    schedule origin; the origin (``perf_counter_ns``) is returned with
    the actual start and end stamp of every send.  ``sent_frames[0]``
    is kept up to date for the reader's backlog samples, and
    ``after_every(sent)`` is called before the first batch and after
    each ``every`` batches (the harness reads the server's CPU there).
    """
    from repro.net.protocol import FrameType

    submit = FrameType.SUBMIT_BATCH
    poll = FrameType.POLL
    send = client.send_frame
    kinds = reader.kinds
    now_ns = time.perf_counter_ns
    sleep = time.sleep
    starts = array("q")
    ends = array("q")
    origin = now_ns() + OPEN_LOOP_LEAD_NS
    for index, offset in enumerate(due_offsets):
        if index % every == 0:
            after_every(index)
        if reader.error is not None:
            raise RuntimeError(f"open loop lost its reader: {reader.error!r}")
        wait = origin + offset * 1e9 - now_ns()
        if wait > 0:
            sleep(wait / 1e9)
        kinds.append(_SUBMIT)
        starts.append(now_ns())
        send(submit, frames[index % len(frames)])
        ends.append(now_ns())
        sent_frames[0] = index + 1
        kinds.append(_POLL)
        send(poll, None)
    return origin, starts, ends


def open_loop_schedule(
    phases: Sequence[Tuple[float, int]], batch: int
) -> List[float]:
    """Due offsets for back-to-back ``(rate, batches)`` phases.

    A phase of rate ``r`` tuples/s sends its batches ``batch / r``
    seconds apart; the next phase starts one gap after its last one.
    """
    offsets: List[float] = []
    origin = 0.0
    for rate, count in phases:
        gap = batch / rate
        offsets.extend(origin + index * gap for index in range(count))
        origin += count * gap
    return offsets
