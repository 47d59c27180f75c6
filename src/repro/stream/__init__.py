"""Stream-processing substrate: sources, engine, sinks, ordering.

The "stand-alone stream aggregator platform" of the paper's Section
5.1, in miniature: pull-based sources, the shared-plan and Cutty
pipelines, composable sinks, and the slightly-out-of-order reorder
buffer of Section 3.1.
"""

from repro.stream.engine import CuttyPipeline, StreamEngine
from repro.stream.outoforder import absorbable
from repro.stream.punctuation import (
    PunctuatedCuttyPipeline,
    Punctuation,
    bandwidth_overhead,
    punctuate,
)
from repro.stream.records import Record, SensorEvent
from repro.stream.sink import (
    CallbackSink,
    CollectSink,
    CountingSink,
    DeadLetter,
    DeadLetterSink,
    LatestSink,
    Sink,
)
from repro.stream.source import Source, from_events, from_values

__all__ = [
    "Record",
    "SensorEvent",
    "Source",
    "from_values",
    "from_events",
    "Sink",
    "CollectSink",
    "LatestSink",
    "CallbackSink",
    "CountingSink",
    "DeadLetter",
    "DeadLetterSink",
    "StreamEngine",
    "CuttyPipeline",
    "absorbable",
    "Punctuation",
    "punctuate",
    "bandwidth_overhead",
    "PunctuatedCuttyPipeline",
]
