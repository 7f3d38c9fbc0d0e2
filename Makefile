# Convenience targets; each maps to a documented command in README.md.
#
# Every target works from a clean checkout: PYTHONPATH=src puts the package
# on the path without requiring `make install` first.

.PHONY: check install test test-fast lint imports fuzz bench perf-check pins experiments experiments-report clean

# Default flow: static analysis over shipped workloads, then the test suite.
check: lint test

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/ -q --timeout=600

test-fast:
	PYTHONPATH=src pytest tests/ -q -m "not slow" --timeout=600

# Task-graph lint (docs/analysis.md) over everything we ship as example
# code; CI requires zero findings here.
lint:
	PYTHONPATH=src python -m repro.analysis examples src/repro/apps --format text

# Import each repro module alone, clearing repro* from sys.modules first,
# so no module imports only after another has run (about 25 s, so it
# stays out of tier-1; tests/test_import_graph.py is the fast check).
imports:
	PYTHONPATH=src python -m tests._imports

# Differential parity fuzzing (docs/verify.md): a fixed 50-seed corpus
# through Runtime/ThreadRuntime/DistRuntime with zero PF4xx findings
# required.  Fixed seeds + fixed budget = CI failures reproduce verbatim;
# failures shrink to JSON reproducers under fuzz-reproducers/.
fuzz:
	PYTHONPATH=src python -m repro.verify fuzz --seeds 0:50 --budget-s 60 --out fuzz-reproducers

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# The repository benchmark's own tests (benchmarks/perf/test_perf.py): the
# cheapest cell of each workload against its expected.json pin, plus the
# compare rule and layer bucketing.  `make bench` skips them (it runs
# benchmark fixtures only), so they get their own target.
perf-check:
	PYTHONPATH=src pytest benchmarks/perf -q

# Every cell's digest pin in benchmarks/perf/expected.json: all 51 cells of
# the four workloads (about a minute), where perf-check runs only the
# cheapest cell of each.
pins:
	python3 benchmarks/perf/run.py check

experiments:
	PYTHONPATH=src python -m repro.experiments.cli all --scale bench --no-plots

experiments-report:
	PYTHONPATH=src python -m repro.experiments.cli all --scale bench --no-plots --markdown EXPERIMENTS.generated.md

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info fuzz-reproducers BENCH_*.json
	find . -name __pycache__ -type d -exec rm -rf {} +
