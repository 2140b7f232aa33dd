# Convenience targets for the P-Grid reproduction.

PYTHON ?= python
# Scale of `make bench`: fig4 (default) or smoke (CI-fast).
SCALE ?= fig4

.PHONY: install test aio-leakcheck lint src-lines check bench bench-experiments bench-paper bench-quick bench-regression bench-array bench-e2e-smoke bench-pairs bench-shm-smoke check-parallel protocol-equivalence resilience-smoke replication-smoke swarm-smoke examples clean results

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Leak gate for the asyncio runtime (the persistent TCP client and
# SwarmServer.stop() are what it watches): development mode, with an
# unclosed transport or socket (ResourceWarning), a never-awaited coroutine
# (RuntimeWarning) and anything raised in a finaliser failing the test that
# left it behind.  The filters are pytest's own -W: the interpreter's
# cannot name pytest's warning class, and without it a ResourceWarning
# raised inside __del__ is only reported.
aio-leakcheck:
	PYTHONPATH=src $(PYTHON) -X dev -m pytest -W error::ResourceWarning \
		-W error::RuntimeWarning -W error::pytest.PytestUnraisableExceptionWarning \
		tests/aio -q

# Lint degrades gracefully: offline environments may lack ruff/mypy
# (CI always installs them — see .github/workflows/ci.yml).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed - skipping"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		PYTHONPATH=src $(PYTHON) -m mypy src/repro/obs; \
	else \
		echo "mypy not installed - skipping"; \
	fi

# Tracked metric (ROADMAP aim 2): total and per-package line count of
# src/repro/**/*.py.  Printed by the CI lint job.
src-lines:
	@printf '%8d %s\n' "$$(find src/repro -name '*.py' | xargs cat | wc -l)" total
	@for package in src/repro/*/; do \
		printf '%8d %s\n' \
			"$$(find $$package -name '*.py' | xargs cat | wc -l)" $$package; \
	done
	@printf '%8d %s\n' "$$(cat src/repro/*.py | wc -l)" 'src/repro/*.py'

check: test lint

# Perf baselines: writes BENCH_micro.json / BENCH_construction.json /
# BENCH_search.json to the repo root (see benchmarks/harness.py).
bench:
	$(PYTHON) benchmarks/harness.py --scale $(SCALE)

# The paper-table regeneration suite (pytest-benchmark based).  The e2e
# harness has its own conftest and self-tests (bench-e2e-smoke); collected
# together, its conftest shadows benchmarks/conftest.py.
bench-experiments:
	$(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only

bench-paper:
	REPRO_SCALE=paper $(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only

bench-quick:
	REPRO_SCALE=quick $(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only

# Perf gate: a fresh micro-bench run's hot-path speedup ratios must stay
# within 10% of the committed smoke-scale baseline, the construction
# ratios (depth tracking, batch vs object) within 35%, and the
# batch-search speedup within 35% of its baseline with found-rate/messages
# deltas inside the 2% equivalence bound (ratios, not raw timings, so the
# gate is machine-independent).
bench-regression:
	$(PYTHON) benchmarks/harness.py --scale smoke --out-dir benchmarks/results/fresh
	$(PYTHON) benchmarks/check_regression.py \
		--baseline benchmarks/baselines/BENCH_micro_smoke.json \
		--fresh benchmarks/results/fresh/BENCH_micro.json \
		--fresh-construction benchmarks/results/fresh/BENCH_construction.json \
		--fresh-array-search benchmarks/results/fresh/BENCH_array_search.json

# End-to-end benchmark gate (benchmarks/e2e, BENCHMARK.json): its own
# self-tests, then all six workloads once at the tiny scale with every
# answer verified — keeps the harness PRs are judged by runnable.
bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e/tests -q
	$(PYTHON) benchmarks/e2e/run.py --seed 1 --scale tiny

# The measurement protocol of a PR that claims a gain: alternating
# parent/change pairs of one e2e workload, run.py unchanged on both sides.
#   git archive <parent-commit> | tar -x -C /tmp/parent
#   make bench-pairs PARENT=/tmp/parent [CHANGE=.] [WORKLOAD=tcp_search] [SEED=1] [PAIRS=10]
# Prints every run, q1 / median / q3 per side, pairs won and whether the
# median gap exceeds the parent's IQR; checks msgs_per_op / found_rate /
# failed equal; writes benchmarks/results/pairs/*.json.  EXPECT=unchanged
# judges a workload the change must not move: green iff the counts are
# equal and no end-to-end metric's median is worse than its BENCHMARK.json
# bound; a metric whose parent spread exceeds its bound prints unresolved.
CHANGE ?= .
WORKLOAD ?= tcp_search
SEED ?= 1
PAIRS ?= 10
EXPECT ?= improved
bench-pairs:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --change $(CHANGE) \
		--workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS) --expect $(EXPECT)

# Array-core scale point: gridless batched construction at the smoke
# scale's 20k peers (fig4 scale runs 100k), reporting throughput, the
# replica distribution and the memory footprint.
bench-array:
	$(PYTHON) benchmarks/bench_array_smoke.py --scale $(SCALE)

# Shared-memory snapshot gate: a --jobs 2 sweep shipping only the
# GridSnapshot ref must stay bit-identical to serial, keep the pickled
# trial spec tiny, attach at most once per worker, and leave no
# pgrid_snap_* residue in /dev/shm (see benchmarks/check_shm.py).
bench-shm-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/check_shm.py

# Parallel-speedup gate over the committed BENCH_search.json: jobs=2
# sweeps must beat serial on multi-core machines and stay bit-identical
# everywhere (regression guard for the shared-pool amortization).
check-parallel:
	$(PYTHON) benchmarks/check_parallel.py --fresh BENCH_search.json

# Tentpole gate: the in-process engines, the message-driven node and the
# asyncio runtime run the same repro.protocol machines — identical
# results, costs and RNG streams (tests/protocol/, tests/aio/).
# tests/protocol/test_node_shells.py rides along: one contract for the
# two node driver loops, the only node code still written per transport;
# tests/protocol/test_direct.py runs a walk longer than the recursion
# limit through every driver: each keeps nested hops on its own stack.
protocol-equivalence:
	PYTHONPATH=src $(PYTHON) -m pytest tests/protocol tests/aio/test_async_equivalence.py -q

# Resilience gate: measured success under injected faults must match the
# §4 analytic curve within the smoke tolerance (see docs/RESILIENCE.md).
resilience-smoke:
	PYTHONPATH=src $(PYTHON) -c "import sys; from repro.experiments import resilience; \
	sys.exit(resilience.main(['--scale', 'smoke', '--jobs', '2', '--check']))"

# Replication gate: under Zipf traffic with exponent >= 1.0 the adaptive
# balancer must beat the static §4 baseline on p95 messages-to-hit
# without losing found rate (see docs/REPLICATION.md).
replication-smoke:
	PYTHONPATH=src $(PYTHON) -c "import sys; from repro.experiments import replication; \
	sys.exit(replication.main(['--scale', 'smoke', '--jobs', '2', '--check']))"

# Swarm gate: 1000 concurrent asyncio nodes absorb a mixed
# search/update workload with a perfect found rate inside the time
# budget (see docs/ASYNC.md).
swarm-smoke:
	PYTHONPATH=src $(PYTHON) -m repro swarm --peers 1000 --maxl 6 \
		--operations 2000 --update-fraction 0.1 --concurrency 64 \
		--seed 0 --min-found-rate 1.0 --time-budget 120

# Every shipped example, from the source tree, with a DeprecationWarning
# an error (an example must use the current import paths).
examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src $(PYTHON) -W error::DeprecationWarning $$script || exit 1; \
	done

results:
	@ls -1 benchmarks/results/*.txt 2>/dev/null || \
		echo "no results yet - run 'make bench' first"

clean:
	rm -rf benchmarks/.cache benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
