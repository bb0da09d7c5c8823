# Developer entry points for the CrowdFusion reproduction.
#
# The library is import-run from src/ (no install step needed); every target
# works in a fresh checkout.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

# A smoke target's benchmark step records single best-of samples into the
# committed artifact; these are exercise, not results.  Prefix the step with
# $(KEEP_ARTIFACT) to put the artifact back as it was when the step exits,
# pass or fail.
ARTIFACT = benchmarks/results/BENCH_selection.json
KEEP_ARTIFACT = keep=$$(mktemp -d) && cp $(ARTIFACT) "$$keep/" && \
	trap 'cp "$$keep/BENCH_selection.json" $(ARTIFACT); rm -rf "$$keep"' EXIT &&

.PHONY: test bench bench-smoke bench-scan-smoke chaos-smoke serve-smoke orchestrate-smoke cluster-smoke determinism loc

# Tier-1 suite: the fast default (excludes the slow 2^20-support scenarios).
test:
	$(PYTEST) -x -q

# All benchmark modules except the slow scale scenarios.  (The bench files
# deliberately do not match pytest's test_*.py pattern, so they must be
# passed explicitly.)
bench:
	$(PYTEST) -q benchmarks/bench_*.py

# CI-sized exercise of the multiprocess selection paths.  The parallel
# markers are normally skipped on constrained hosts, so this forces them on
# (2-CPU runners included): the full parallel equivalence suites — session-
# owned and shared evaluator pools, entity fan-out, CLI flags — plus one tiny
# multi-round session-pool benchmark scenario, keeping the fork paths
# exercised outside manual multi-core runs.
bench-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m "parallel and not slow" \
		tests/core/selection/test_parallel.py \
		tests/core/selection/test_persistent_pool.py \
		tests/core/selection/test_multiplex.py \
		tests/evaluation/test_parallel_entities.py \
		tests/service/test_shared_pool.py \
		tests/test_cli.py
	$(KEEP_ARTIFACT) REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q \
		-m "parallel and not slow" \
		benchmarks/bench_selection_hotpath.py -k session_pool_smoke

# CI-sized exercise of the batched candidate scan and the packed wide-fact
# representation: the bit-plane unit + property suites, the exact
# batched-vs-single-candidate scan equivalence suite, and the wide-fact
# benchmark scenario (packed planes vs. the object-dtype engine).
bench-scan-smoke:
	$(PYTEST) -q \
		tests/core/test_bitplanes.py \
		tests/core/selection/test_batched_scan.py
	$(KEEP_ARTIFACT) $(PYTEST) -q benchmarks/bench_selection_hotpath.py -k wide_facts

# The fault-injection chaos suite: worker kills mid-scan, hung dispatches,
# corrupted generation headers, merge crashes mid-batch, dropped client
# connections — each asserting the runtime recovers to a trajectory
# bit-identical to an undisturbed run, degrades gracefully past the circuit
# breaker, and leaks no worker processes or /dev/shm segments.  Parallel
# tests are forced on so the fork paths run even on constrained hosts.
chaos-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m chaos

# CI-sized exercise of the durable orchestrator: the journal/checkpoint/lock
# primitives, the sharded sweep's serial-equivalence and crash-resume suites,
# the service snapshot/restore + eviction suite, and the orchestration
# benchmark scenarios (checkpoint overhead vs the in-memory fan-out, resume
# latency) with their bounds asserted; the artifact is left unchanged.
# Parallel tests are forced on so the fork paths run even on constrained
# hosts.
orchestrate-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q \
		tests/orchestration \
		tests/service/test_persistence.py
	$(KEEP_ARTIFACT) REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q \
		benchmarks/bench_orchestrator.py

# Boots a real refinement-service server on a loopback port, drives one full
# create → select → post → posterior → close round-trip through the JSON
# client, and asserts that no worker processes leaked.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke

# Runs one sweep on the single-host durable orchestrator and again on the
# lease-fenced cluster coordinator with two loopback shard workers — one
# SIGKILLed mid-lease — and asserts the cluster's curve.jsonl comes out
# byte-identical, the kill was fenced and reassigned, and no worker
# processes leaked.
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.orchestration.cluster_smoke

# Cross-process reproducibility, end to end through the CLI: the same
# experiment under two string-hash seeds must print byte-identical output
# and, through the durable orchestrator, write a byte-identical
# full-precision curve.jsonl.
determinism:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	for seed in 0 1; do \
		PYTHONHASHSEED=$$seed PYTHONPATH=src $(PYTHON) -m repro.cli experiment \
			--books 8 --curve > "$$out/stdout-$$seed.txt" || exit 1; \
		PYTHONHASHSEED=$$seed PYTHONPATH=src $(PYTHON) -m repro.cli experiment \
			--books 8 --curve --run-dir "$$out/run-$$seed" > /dev/null || exit 1; \
	done && \
	cmp "$$out/stdout-0.txt" "$$out/stdout-1.txt" && \
	cmp "$$out/run-0/curve.jsonl" "$$out/run-1/curve.jsonl" && \
	echo "determinism: PYTHONHASHSEED=0 and =1 outputs are byte-identical"

# Code size, the ROADMAP's simplicity metric: total lines of the Python files
# under src/, tests/ and benchmarks/.
loc:
	@for dir in src tests benchmarks; do \
		printf '%-12s %6d\n' "$$dir/" "$$(find $$dir -name '*.py' -exec cat {} + | wc -l)"; \
	done
