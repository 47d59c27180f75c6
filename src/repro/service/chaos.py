"""Deterministic fault injection for the sharded aggregation service.

Production fault tolerance is only as good as the failures it has
actually been driven through.  This module provides a seeded
:class:`FaultInjector` that the :class:`~repro.service.supervisor.Supervisor`
threads through its lifecycle hooks, so tests can *provoke* every
failure mode the service claims to survive, at exact, reproducible
points:

* **worker kills** at chosen batch sequence numbers (SIGKILL right
  after the batch is shipped) and **crash loops** (kill the worker at
  every (re)spawn) that exhaust the per-shard restart budget;
* **checkpoint corruption** — a deterministic bit-flip in the *n*-th
  checkpoint a shard produces, exercising the CRC32 verification and
  the last-known-good fallback;
* **send delays**, simulating a slow transport into a shard;
* **worker-side stalls and wedges** via a picklable
  :class:`WorkerFaultPlan` carried in the shard config: a *stall*
  sleeps a bounded number of seconds mid-batch (a slow shard the
  heartbeat logic must tolerate), a *wedge* sleeps effectively forever
  (a dead shard the stall detector must kill and recover);
* **poison records** — :func:`poison` wraps a value in a
  :class:`PoisonValue` whose every arithmetic/comparison raises, so the
  failure happens *inside* the aggregate operator, where per-record
  quarantine must catch it.

Every decision the injector makes is recorded in :attr:`FaultInjector.events`
for test assertions, and anything random (corruption bit positions,
:meth:`FaultInjector.random` schedules) derives from the constructor
seed, so a chaos run is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

#: Sleep used for a "wedge": far longer than any stall timeout, so a
#: wedged worker never finishes its batch and must be killed.
WEDGE_SECONDS = 3600.0


class PoisonValue:
    """A record payload that raises inside any aggregate operator.

    Arithmetic, comparison, and numeric-conversion operations all raise
    ``RuntimeError``, so the failure surfaces wherever the operator
    first touches the value (``lift`` or ``combine``) — never earlier.
    The object is picklable and hashable (by identity semantics on its
    label), so it travels through routing, batching, and worker queues
    like any other payload.
    """

    __slots__ = ("label",)

    def __init__(self, label: str = "poison"):
        self.label = label

    def _refuse(self, *_args):
        raise RuntimeError(
            f"poison value {self.label!r} touched by the operator"
        )

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __neg__ = __abs__ = __float__ = __int__ = _refuse

    def __repr__(self) -> str:
        return f"PoisonValue({self.label!r})"

    def __reduce__(self):
        return (PoisonValue, (self.label,))


def poison(label: str = "poison") -> PoisonValue:
    """A record value guaranteed to raise inside the operator."""
    return PoisonValue(label)


@dataclass(frozen=True)
class WorkerFaultPlan:
    """The picklable, worker-side half of an injection schedule.

    Travels inside :class:`~repro.service.shard.ShardConfig` to the
    worker process; :meth:`apply` is called by the worker loop right
    before it processes each batch (after its start-of-batch
    heartbeat, so the supervisor has seen signs of life first).

    Attributes:
        stall_at: ``{seq: seconds}`` — bounded sleeps, simulating a
            slow shard that heartbeat-based detection must *not* kill.
        wedge_at: Sequence numbers at which the worker sleeps
            :data:`WEDGE_SECONDS`, simulating a shard that is alive as
            a process but will never make progress.
    """

    stall_at: Tuple[Tuple[int, float], ...] = ()
    wedge_at: Tuple[int, ...] = ()

    def apply(self, seq: int) -> None:
        """Sleep according to the plan for batch ``seq`` (maybe not at all)."""
        for stall_seq, seconds in self.stall_at:
            if stall_seq == seq:
                time.sleep(seconds)
        if seq in self.wedge_at:
            time.sleep(WEDGE_SECONDS)

    def __bool__(self) -> bool:
        """Whether the plan contains any fault at all."""
        return bool(self.stall_at or self.wedge_at)


@dataclass(frozen=True)
class ChaosEvent:
    """One fault the injector actually fired (for test assertions)."""

    kind: str
    shard_id: int
    detail: Any = None


class FaultInjector:
    """Seeded, deterministic fault schedule for one service run.

    Construct, declare faults with the ``kill_worker`` /
    ``crash_loop`` / ``corrupt_checkpoint`` / ``delay_puts`` /
    ``stall_shard`` / ``wedge_shard`` methods, then pass the injector
    to :class:`~repro.service.service.AggregationService` (or directly
    to a :class:`~repro.service.supervisor.Supervisor`).  The
    supervisor calls the ``on_*`` hooks at its lifecycle points; each
    scheduled fault fires at most the declared number of times, and
    every firing is appended to :attr:`events`.

    Args:
        seed: Drives every random choice (corruption bit positions,
            :meth:`random` schedules), making runs reproducible.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._kill_after_ship: Dict[int, Set[int]] = {}
        self._kill_on_spawn: Dict[int, int] = {}
        self._corrupt_nth: Dict[int, Set[int]] = {}
        self._checkpoints_seen: Dict[int, int] = {}
        self._put_delays: Dict[int, float] = {}
        self._stalls: Dict[int, Dict[int, float]] = {}
        self._wedges: Dict[int, Set[int]] = {}
        self._tear_nth: Dict[int, Set[int]] = {}
        self._stale_nth: Dict[int, Set[int]] = {}
        self._data_frames_seen: Dict[int, int] = {}
        #: Every fault actually fired, in firing order.
        self.events: List[ChaosEvent] = []

    # -- schedule declaration --------------------------------------

    def kill_worker(self, shard_id: int, after_seq: int) -> "FaultInjector":
        """SIGKILL the shard's worker right after batch ``after_seq`` ships."""
        self._kill_after_ship.setdefault(shard_id, set()).add(after_seq)
        return self

    def crash_loop(self, shard_id: int, times: int = 1_000_000) -> "FaultInjector":
        """Kill the shard's worker at its next ``times`` (re)spawns.

        With ``times`` at least the supervisor's restart budget this
        deterministically drives the shard to the ``failed`` state.
        """
        self._kill_on_spawn[shard_id] = (
            self._kill_on_spawn.get(shard_id, 0) + times
        )
        return self

    def corrupt_checkpoint(self, shard_id: int, nth: int = 1) -> "FaultInjector":
        """Flip one random bit in the shard's ``nth`` checkpoint (1-based)."""
        self._corrupt_nth.setdefault(shard_id, set()).add(nth)
        return self

    def delay_puts(self, shard_id: int, seconds: float) -> "FaultInjector":
        """Sleep ``seconds`` before every blocking send toward the shard."""
        self._put_delays[shard_id] = seconds
        return self

    def stall_shard(
        self, shard_id: int, seq: int, seconds: float
    ) -> "FaultInjector":
        """Make the worker sleep ``seconds`` before processing batch ``seq``."""
        self._stalls.setdefault(shard_id, {})[seq] = seconds
        return self

    def wedge_shard(self, shard_id: int, seq: int) -> "FaultInjector":
        """Make the worker hang indefinitely at batch ``seq``.

        The stall detector must notice the silence, kill the worker,
        and recover it; the wedge is cleared once it has provoked a
        stall kill, so the replayed batch processes normally.
        """
        self._wedges.setdefault(shard_id, set()).add(seq)
        return self

    def tear_frame(self, shard_id: int, nth: int = 1) -> "FaultInjector":
        """Corrupt the shard's ``nth`` data-ring frame (1-based).

        One seeded bit-flip anywhere in the frame, simulating a torn
        shared-memory write.  The worker's CRC32 check must reject the
        frame, the worker exits nonzero, and crash recovery replays
        the batch from the supervisor's retained history.
        """
        self._tear_nth.setdefault(shard_id, set()).add(nth)
        return self

    def stale_frame(self, shard_id: int, nth: int = 1) -> "FaultInjector":
        """Duplicate the shard's ``nth`` data-ring frame (1-based).

        The worker sees the same sequence number twice; its idempotent
        replay check must acknowledge the duplicate with an empty
        output rather than double-fold the records.
        """
        self._stale_nth.setdefault(shard_id, set()).add(nth)
        return self

    @classmethod
    def random(
        cls,
        seed: int,
        num_shards: int,
        max_seq: int,
        kills: int = 2,
        stalls: int = 1,
        corruptions: int = 1,
    ) -> "FaultInjector":
        """A reproducible random schedule for property-style chaos tests.

        Draws ``kills`` worker kills, ``stalls`` sub-timeout stalls,
        and ``corruptions`` checkpoint bit-flips, uniformly over shards
        and sequence numbers up to ``max_seq`` — the same seed always
        yields the same schedule.
        """
        injector = cls(seed)
        rng = random.Random(seed)
        for _ in range(kills):
            injector.kill_worker(
                rng.randrange(num_shards), rng.randint(1, max_seq)
            )
        for _ in range(stalls):
            injector.stall_shard(
                rng.randrange(num_shards),
                rng.randint(1, max_seq),
                rng.uniform(0.05, 0.15),
            )
        for _ in range(corruptions):
            injector.corrupt_checkpoint(rng.randrange(num_shards), 1)
        return injector

    # -- supervisor hooks ------------------------------------------

    def worker_config(self, config: Any) -> Any:
        """The shard config to spawn with, carrying current worker faults.

        Called at every (re)spawn, so faults cleared in the parent
        (e.g. a wedge that already fired) no longer reach the worker.
        """
        plan = WorkerFaultPlan(
            stall_at=tuple(
                sorted(self._stalls.get(config.shard_id, {}).items())
            ),
            wedge_at=tuple(sorted(self._wedges.get(config.shard_id, ()))),
        )
        if not plan:
            return config
        return dataclasses.replace(config, chaos=plan)

    def on_spawned(self, process: Any, shard_id: int) -> bool:
        """Kill-at-spawn hook; returns whether the worker was killed."""
        remaining = self._kill_on_spawn.get(shard_id, 0)
        if remaining <= 0:
            return False
        self._kill_on_spawn[shard_id] = remaining - 1
        self.events.append(ChaosEvent("spawn-kill", shard_id))
        process.kill()
        return True

    def on_shipped(self, process: Any, shard_id: int, seq: int) -> None:
        """Post-ship hook: fire any kill scheduled at this sequence number."""
        scheduled = self._kill_after_ship.get(shard_id)
        if scheduled and seq in scheduled:
            scheduled.discard(seq)
            self.events.append(ChaosEvent("kill", shard_id, seq))
            process.kill()

    def put_delay(self, shard_id: int) -> float:
        """Seconds to sleep before a blocking send toward ``shard_id``."""
        return self._put_delays.get(shard_id, 0.0)

    def on_checkpoint(self, shard_id: int, data: bytes) -> bytes:
        """Checkpoint-absorb hook: maybe return corrupted bytes.

        The flipped bit lands in the payload region (past the 4-byte
        length prefix), chosen by the injector's seeded RNG, so the
        CRC32 check — not a pickle accident — is what detects it.
        """
        seen = self._checkpoints_seen.get(shard_id, 0) + 1
        self._checkpoints_seen[shard_id] = seen
        if seen not in self._corrupt_nth.get(shard_id, ()):
            return data
        corrupted = bytearray(data)
        index = self._rng.randrange(4, len(corrupted))
        corrupted[index] ^= 1 << self._rng.randrange(8)
        self.events.append(
            ChaosEvent("corrupt-checkpoint", shard_id, seen)
        )
        return bytes(corrupted)

    def has_data_frame_fault(self, shard_id: int) -> bool:
        """Whether a torn/stale frame is still scheduled for the shard.

        The supervisor routes the shard's batches through its blocking
        frame writer while this is true, so an injected frame group is
        never half-applied by the non-blocking fast path.
        """
        return bool(
            self._tear_nth.get(shard_id) or self._stale_nth.get(shard_id)
        )

    def on_data_frame(self, shard_id: int, frame: bytes) -> List[bytes]:
        """Data-plane hook: the ring frames to write for one batch.

        Counts the shard's outbound data frames and substitutes the
        scheduled faults: a *tear* replaces the frame with a one-bit
        corruption (each schedule entry fires once), a *stale* appends
        a byte-identical duplicate after the original.
        """
        seen = self._data_frames_seen.get(shard_id, 0) + 1
        self._data_frames_seen[shard_id] = seen
        frames = [frame]
        torn = self._tear_nth.get(shard_id)
        if torn and seen in torn:
            torn.discard(seen)
            corrupted = bytearray(frame)
            index = self._rng.randrange(len(corrupted))
            corrupted[index] ^= 1 << self._rng.randrange(8)
            frames = [bytes(corrupted)]
            self.events.append(ChaosEvent("torn-frame", shard_id, seen))
        stale = self._stale_nth.get(shard_id)
        if stale and seen in stale:
            stale.discard(seen)
            frames = frames + [frame]
            self.events.append(ChaosEvent("stale-frame", shard_id, seen))
        return frames

    def on_stall_killed(self, shard_id: int) -> None:
        """Stall-kill hook: clear the shard's wedges so replay proceeds."""
        if self._wedges.pop(shard_id, None) is not None:
            self.events.append(ChaosEvent("wedge-cleared", shard_id))

    # -- introspection ---------------------------------------------

    def fired(self, kind: str) -> List[ChaosEvent]:
        """Events of one kind, in firing order."""
        return [event for event in self.events if event.kind == kind]
