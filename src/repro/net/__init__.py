"""Network serving layer: the sharded service behind a socket.

The scale-out story of the ROADMAP needs a real ingress: this package
puts :class:`~repro.service.service.AggregationService` behind a TCP
socket with a length-prefixed binary wire protocol, an asyncio server
with admission control (bounded in-flight records/bytes, ``block`` or
``shed``-with-RETRY policies), and sync + async client libraries with
timeouts and bounded retry-with-backoff.  The protocol spec and
deployment notes live in ``docs/serving.md``.

Public surface:

* :mod:`~repro.net.protocol` — frame codec
  (:class:`FrameType`, :func:`encode_frame`, :class:`FrameDecoder`,
  value codec, answer marshalling).
* :mod:`~repro.net.server` — :class:`AggregationServer`,
  :class:`AdmissionBudget`, :class:`ServerThread`.
* :mod:`~repro.net.client` — :class:`AggregationClient`,
  :class:`AsyncAggregationClient`.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".client": ("AggregationClient", "AsyncAggregationClient"),
    ".protocol": (
        "LEGACY_PROTOCOL_VERSION",
        "MAGIC",
        "MAX_PAYLOAD_BYTES",
        "PROTOCOL_VERSION",
        "SUPPORTED_VERSIONS",
        "Frame",
        "FrameDecoder",
        "FrameType",
        "decode_answers",
        "decode_value",
        "encode_answers",
        "encode_frame",
        "encode_value",
        "pack_column",
        "try_decode_frame",
        "try_decode_frame_traced",
    ),
    ".server": (
        "ADMISSION_POLICIES",
        "AdmissionBudget",
        "AggregationServer",
        "ServerThread",
    ),
})
