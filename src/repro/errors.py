"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Sub-classes
are kept deliberately fine-grained because the streaming engine routes
some of them (e.g. :class:`OutOfOrderError`) to error sinks instead of
tearing the pipeline down.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidQueryError(ReproError, ValueError):
    """An ACQ specification is malformed (non-positive range/slide, ...)."""


class InvalidOperatorError(ReproError, TypeError):
    """An aggregate operator is unsuitable for the requested algorithm.

    Raised, for example, when a non-invertible operator is handed to
    SlickDeque (Inv), or when a selection-type deque algorithm receives
    an operator that is not selection-like.
    """


class WindowStateError(ReproError, RuntimeError):
    """A window structure was driven through an illegal transition.

    Examples: querying an empty single-query window, evicting from an
    empty aggregator, or pushing into a full fixed-capacity buffer.
    """


class OutOfOrderError(ReproError, ValueError):
    """A tuple arrived too late to be absorbed by its partial aggregate.

    Per the paper's arrival-order assumption (Section 3.1), tuples that
    are slightly out of order are absorbed as long as they fall within
    the still-open partial; anything older is an error surfaced through
    this exception.  Where the raiser knows them, the offending
    ``position`` (arrival position or event timestamp) and the
    ``watermark`` it fell behind are carried as attributes so late drops
    are diagnosable from logs; both default to ``None`` for call sites
    that only have a message.
    """

    def __init__(self, message: str, position=None, watermark=None):
        super().__init__(message)
        #: The offending arrival position / event timestamp (or ``None``).
        self.position = position
        #: The watermark the record fell behind (or ``None``).
        self.watermark = watermark

    def __reduce__(self):
        return (type(self), (self.args[0], self.position, self.watermark))


class LateRecordError(ReproError, ValueError):
    """An event-time record arrived behind the watermark.

    Raised (under the ``raise`` late-record policy) when a record's
    event timestamp is older than the current bounded-lateness
    watermark, i.e. its slice has already been closed.  The offending
    ``timestamp``, the ``watermark`` it fell behind, and the configured
    ``lateness_bound`` travel as attributes — and survive pickling
    across process boundaries — so the drop is diagnosable from logs.
    """

    def __init__(self, timestamp: float, watermark: float, lateness_bound: float):
        super().__init__(
            "late record: timestamp %r behind watermark %r "
            "(lateness bound %r)" % (timestamp, watermark, lateness_bound)
        )
        self.timestamp = timestamp
        self.watermark = watermark
        self.lateness_bound = lateness_bound

    def __reduce__(self):
        return (type(self), (self.timestamp, self.watermark, self.lateness_bound))


class PlanError(ReproError, ValueError):
    """A shared execution plan could not be built from the query set."""


class UnknownOperatorError(ReproError, KeyError):
    """The operator registry has no entry under the requested name."""


class ServiceError(ReproError, RuntimeError):
    """The sharded aggregation service was misconfigured or misused.

    Raised for lifecycle violations (submitting to a closed service),
    invalid service configuration (unknown backpressure policy or
    execution mode, non-positive shard counts), and worker failures the
    supervisor could not recover from.
    """


class PoisonRecordError(ReproError, RuntimeError):
    """A record's value raised inside the aggregate operator.

    The shard catches the underlying exception per record, wraps it in
    this type, and quarantines the record to the service's dead-letter
    sink instead of letting it kill the worker.  The original exception
    is preserved as ``__cause__`` (same process) and as the formatted
    ``cause`` attribute (across process boundaries, where tracebacks
    do not travel).
    """

    def __init__(self, message: str, cause: str = ""):
        super().__init__(message)
        #: ``repr`` of the originating exception (picklable).
        self.cause = cause

    def __reduce__(self):
        return (type(self), (self.args[0], self.cause))


class ShardFailedError(ReproError, RuntimeError):
    """A shard exhausted its restart budget (or lost all checkpoints).

    The supervisor stops retrying such a shard: its worker is torn
    down, records routed to it are shed to the dead-letter sink, and
    its keys are reported as degraded through the service stats.  The
    error type itself is raised only when recovery is *impossible in
    principle* (e.g. both the current and fallback checkpoint
    generations are corrupt) and the caller asked for fail-fast
    behaviour.
    """


class TransportError(ReproError, RuntimeError):
    """The shared-memory data plane was misused or misconfigured.

    Raised for lifecycle violations on a ring endpoint (reading before
    committing the previous frame, starting a new payload while one of
    several pieces is part-written) and for frame-codec
    misuse (encoding a batch the columnar codec declared unsupported).
    Corrupt bytes on the ring raise the more specific
    :class:`TornFrameError` instead.
    """


class TornFrameError(TransportError):
    """A frame read off a shared-memory ring failed validation.

    Raised when a frame's magic bytes, declared length, or CRC32 do
    not match the bytes actually present — the signature of a torn
    write (producer died mid-frame) or memory corruption.  The ring's
    contents after a torn frame are unrecoverable; the consumer's
    process exits and the supervisor's crash-recovery path (respawn,
    fresh rings, retained-batch replay) takes over.
    """


class ProtocolError(ReproError, ValueError):
    """A network frame violated the wire protocol.

    Raised by the frame codec for malformed input: bad magic bytes, an
    unsupported protocol version, an unknown frame type, a payload
    whose declared length exceeds the negotiated maximum, a truncated
    or oversized payload body, and unknown value tags inside an
    otherwise well-framed payload.  The server answers a decodable but
    semantically invalid request with an ``ERROR`` reply instead; this
    exception is reserved for bytes the codec cannot interpret at all,
    after which the connection is no longer in a known state and is
    closed.
    """


class ServerOverloadedError(ReproError, RuntimeError):
    """The server shed a request and the client's retries ran out.

    Under the ``shed`` admission policy a server whose in-flight
    budget is exhausted answers ``RETRY`` instead of queueing without
    bound.  The client library retries such replies with exponential
    backoff up to its configured budget; when the budget is spent the
    last ``RETRY`` surfaces as this exception so callers can distinguish
    sustained overload from transport failures.
    """


class ClientTimeoutError(ReproError, TimeoutError):
    """A client-side deadline expired while talking to the server.

    Covers both connection establishment (``connect_timeout``) and
    individual request round-trips (``request_timeout``).  The
    underlying socket/asyncio timeout is preserved as ``__cause__``
    where one exists; the connection should be considered dead, since
    an abandoned request's reply would desynchronise the
    request/reply pipeline.
    """


class TelemetryError(ReproError, ValueError):
    """A telemetry instrument was misdeclared or misused.

    Raised for invalid metric/label names, a metric name re-registered
    under a different instrument kind, non-ascending or non-finite
    histogram bucket bounds, merging histograms with different bounds,
    decrementing a counter, and out-of-range quantile fractions.
    Instrument *updates* (inc/observe/set) on well-formed instruments
    never raise: observation must stay safe on hot paths.
    """


class MergeCapabilityError(ReproError, TypeError):
    """Cross-shard merging would be unsound for this operator.

    Global and time mode recombine per-slice pieces with ``combine``
    in stream order and drive the shared SlickDeque final aggregation
    with the result, so the operator needs a SlickDeque processing path
    (invertible, selection-type, or an algebraic composition);
    ``bit_and`` and ``bit_or`` have none.
    """
