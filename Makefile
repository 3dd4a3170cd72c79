.PHONY: install test lint bench experiments export examples all

install:
	pip install -e . --no-build-isolation

# One pytest run: tier-1 (the simulator's invariants, including the
# SIGKILL matrix and the BENCH_PR7.json energy gate), the benchmark's
# self-tests, so a change that breaks a pinned benchmark digest fails
# here first, and the hot-path speedup gates (in-run floors plus half
# of each speedup in the committed BENCH_PR9.json).
test: lint
	pytest tests/ perfbench/tests benchmarks/test_bench_hotpath.py

# Python style and type checks, when ruff/mypy are installed (the
# container image does not ship them; CI does).  The CRAM program
# linter's own checks run under pytest (tests/test_lint_*.py).
lint:
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
