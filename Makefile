# SLATE reproduction — convenience targets
PYTHON ?= python3

.PHONY: install test lint check bench bench-smoke bench-diff \
	examples figures clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# the static check: determinism lint (D01-D08) and whole-program flow
# analyzer (A01-A06) over one parse of src plus tests, examples and
# benchmarks (docs/devtools.md); report lands in check-report.json for
# the CI artifact
lint:
	PYTHONPATH=src $(PYTHON) -m repro.devtools.check src \
		--report check-report.json

# static check + tier-1 tests (every run checks the runtime
# invariants; the slowest 20 are printed so CI logs where tier-1's time
# goes; the table is budgeted in docs/performance.md), then the
# performance ledger's own tests (benchmarks/e2e, <20 s)
check: lint
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --durations=20
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# fast perf subset (~90s): regenerates benchmarks/results/BENCH_*.json
# (docs/performance.md documents the keys)
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_engine.py \
		benchmarks/bench_sweep.py benchmarks/bench_obs.py \
		benchmarks/bench_chaos.py benchmarks/bench_devtools.py \
		benchmarks/bench_optimizer.py benchmarks/bench_fluid.py \
		--benchmark-only -q

# regression-gate freshly regenerated BENCH_*.json against a snapshot of
# the committed baselines (copy benchmarks/results aside before bench-smoke
# rewrites it, then point BASELINES at the copy). events/sec keys fail on a
# >25% drop; wall-clock keys get a band wide enough for runner noise.
# On failure a provenance flight-recorder dump of the chaos scenario is
# generated into diff-reports/ so CI uploads it next to the diff reports.
BASELINES ?= /tmp/bench-baselines
bench-diff:
	@mkdir -p diff-reports; status=0; \
	for bench in benchmarks/results/BENCH_*.json; do \
		name=$$(basename $$bench); \
		PYTHONPATH=src $(PYTHON) -m repro obs diff \
			"$(BASELINES)/$$name" "$$bench" \
			--rel-tolerance 0.25 \
			--tolerance '*_seconds=5.0' \
			--tolerance '*speedup*=5.0' \
			--tolerance '*_rel_error=1.0' \
			--report "diff-reports/$${name%.json}.diff.json" \
			|| status=1; \
	done; \
	if [ $$status -ne 0 ]; then \
		PYTHONPATH=src $(PYTHON) -m repro obs explain default \
			--scenario chaos --duration 30 \
			--dump diff-reports/flight-dump.jsonl \
			-o diff-reports/provenance.jsonl \
			> diff-reports/explain.txt || true; \
	fi; exit $$status

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

figures:
	$(PYTHON) -m repro figure fig3
	$(PYTHON) -m repro figure fig4
	$(PYTHON) -m repro figure fig6a
	$(PYTHON) -m repro figure fig6b
	$(PYTHON) -m repro figure fig6c
	$(PYTHON) -m repro figure fig6d

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
