# Convenience targets for the SlickDeque reproduction.

PYTHON ?= python

.PHONY: install test cost-gates bench bench-pipeline experiments validate quick-experiments serve metrics event-time clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Deterministic cost gates: Python-level library calls per tuple,
# frame and request on the engine, service and wire paths, and the
# modules an engine import loads.  Seconds to run, so a regression
# fails before the full suite.
cost-gates:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/unit/test_engine_cost.py tests/unit/test_service_cost.py tests/unit/test_wire_cost.py tests/unit/test_import_cost.py

# Every paper sweep case (Table 1, Figs. 10-15, Exp 5, ablations) at
# the quick scale under pytest-benchmark.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/paper/bench_paper.py --benchmark-only

# Smoke pass of the BENCHMARK.json pipeline benchmark: all six
# workloads at 1/8 of the fixed work, every answer checked; exits
# non-zero on any failed operation or invalid run.
bench-pipeline:
	python3 benchmarks/pipeline/run.py --quick

# The paper harness (benchmarks/paper/) runs from the repository root.
experiments:
	PYTHONPATH=src $(PYTHON) -m benchmarks.paper.cli all --scale default --chart

quick-experiments:
	PYTHONPATH=src $(PYTHON) -m benchmarks.paper.cli all --scale quick

validate:
	PYTHONPATH=src $(PYTHON) -m benchmarks.paper.cli validate

serve:
	PYTHONPATH=src $(PYTHON) examples/net_server.py

metrics:
	PYTHONPATH=src $(PYTHON) examples/net_server.py --metrics-port 0

event-time:
	PYTHONPATH=src $(PYTHON) examples/event_time_service.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
