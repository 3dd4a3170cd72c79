.PHONY: install test lint lint-smoke verify-smoke obs-smoke faults-smoke bench-smoke compiled-smoke crash-smoke harden-smoke env-smoke bench experiments export examples all

install:
	pip install -e . --no-build-isolation

# Tier-1 and the benchmark's self-tests in one pytest run, so a change
# that breaks a pinned benchmark digest fails here first.
test: obs-smoke faults-smoke bench-smoke compiled-smoke crash-smoke harden-smoke env-smoke lint verify-smoke
	pytest tests/ perfbench/tests

# Static checks: the CRAM program linter over every registered target,
# then ruff/mypy over the Python sources when they are installed (the
# container image does not ship them; CI does).
lint: lint-smoke
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping Python style check"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

lint-smoke:
	PYTHONPATH=src python -m repro.lint.smoke

# Verification gate: every Table IV workload symbolically proven
# equivalent to its golden reference (and replay-safe), every hardened
# rewrite proven equivalent to its source at levels 0/0.5/1, and the
# seeded-miscompilation corpus (>= 10 structurally-green mutants) all
# refuted by the SEM/REEX provers.
verify-smoke:
	PYTHONPATH=src python -m repro.verify.smoke

# Observability gate: the traced SVM-kernel run plus profiler
# attribution (bit-exact vs the Breakdown), flamegraph lint, checkpoint
# counters, and one live /metrics scrape.
obs-smoke:
	PYTHONPATH=src python -m repro.obs.smoke

faults-smoke:
	PYTHONPATH=src python -m repro.faults.smoke

# Hot-path gate: quick microbenchmarks with in-run baselines; asserts
# the speedup floors (incl. the compiled-plan executors) and fails on a
# >2x ratio regression against the checked-in BENCH_PR9.json, which it
# leaves as committed so every run compares against the same reference.
bench-smoke:
	PYTHONPATH=src python -m repro.perf.smoke --no-refresh

# Compiled-executor gate: every verify target's AOT plan symbolically
# proven equivalent to its source (EquivalencePass), campaign workloads
# + fused ProfileRun byte-identical compiled vs interpreted, the
# compiled path demonstrably taken, and the >= 10x interpreter speedup
# floor held.
compiled-smoke:
	PYTHONPATH=src python -m repro.compilejit.smoke

# Hardening gate: tiny protection-frontier sweep (BNN, Modern STT);
# asserts the proven SDC bound dominates the measured rate, full
# hardening cuts measured SDC >= 10x, the hardened program lints clean
# (incl. the SDC pass), the report is byte-reproducible, and the
# energy-overhead cost has not regressed vs BENCH_PR7.json.
harden-smoke:
	PYTHONPATH=src python -m repro.harden.smoke

# Durability gate: 200+ seeded SIGKILLs (instruction boundaries and
# mid-image-write) across SVM and BNN intermittent runs, torn/corrupt
# generation fuzzing, NVImage schema validation — every resumed report
# must be byte-identical to the uninterrupted run.
crash-smoke:
	PYTHONPATH=src python -m repro.durability.smoke

# Environment gate: constant-trace Breakdowns byte-identical to the
# constant source (all technologies, interpreted + fused), emergent
# outages from a scarce solar trace, adaptive >= fixed inferences per
# trace family with degraded-mode tallies, SIGKILL+resume under a
# fluctuating trace byte-identical, trace JSONL round trip exact.
env-smoke:
	PYTHONPATH=src python -m repro.env.smoke

bench:
	pytest benchmarks/ --benchmark-only

experiments:
	python -m repro all

export:
	python -m repro export results

examples:
	python examples/quickstart.py
	python examples/application_mapping.py
	python examples/svm_inference.py
	python examples/bnn_inference.py
	python examples/energy_harvesting_sweep.py
	python examples/deployment_pipeline.py

all: test bench experiments
