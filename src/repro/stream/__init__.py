"""Stream-processing substrate: sources, engine, sinks, ordering.

The "stand-alone stream aggregator platform" of the paper's Section
5.1, in miniature: pull-based sources, the shared-plan and Cutty
pipelines, composable sinks, and the slightly-out-of-order reorder
buffer of Section 3.1.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".engine": ("CuttyPipeline", "StreamEngine"),
    ".outoforder": ("absorbable",),
    ".punctuation": (
        "PunctuatedCuttyPipeline",
        "Punctuation",
        "bandwidth_overhead",
        "punctuate",
    ),
    ".records": ("Record", "SensorEvent"),
    ".sink": (
        "CallbackSink",
        "CollectSink",
        "CountingSink",
        "DeadLetter",
        "DeadLetterSink",
        "LatestSink",
        "Sink",
    ),
    ".source": ("Source", "from_events", "from_values"),
})
