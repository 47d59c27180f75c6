"""The paper's evaluation harness (Table 1, Figs. 10-15, Exp 5, ablations).

* :mod:`benchmarks.paper.sweeps` — one sweep definition per table or
  figure: cases per scale, stream recipe, measure and report section.
* :mod:`benchmarks.paper.measures` — the stream recipes and the one
  throughput and one latency driver the sweeps share.
* :mod:`benchmarks.paper.validate` — PASS/FAIL for the paper's claims.
* :mod:`benchmarks.paper.cli` — ``python -m benchmarks.paper.cli``.
* ``bench_paper.py`` — every sweep case under pytest-benchmark.

Nothing in the ``repro`` library imports this package.
"""
