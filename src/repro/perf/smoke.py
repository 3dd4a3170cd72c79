"""Benchmark smoke gate: quick hot-path run, ratio floors, refresh.

    PYTHONPATH=src python -m repro.perf.smoke [--out PATH] [--no-refresh]

Runs the hot-path microbenchmarks in quick mode (every benchmark still
cross-checks the fast path against its scalar/serial referee before
timing anything) and then enforces three gates:

* **speedup floors** — ``logic_op`` must beat the scalar-rebuild
  baseline by >= 5x, the batch-64 classifiers must beat the serial
  loop by >= 10x, and the compiled-plan executors must beat the scalar
  interpreter by >= 10x (``compiled_step_instruction``) and >= 5x
  (``compiled_intermittent_replay``), measured in this very run;
* **speedup regression** — if a checked-in ``BENCH_PR9.json`` exists,
  no op's speedup may fall below half its recorded value.  Ratios are
  compared rather than absolute ns/op because both sides of a ratio
  are measured on the same machine in the same run, so the comparison
  is machine-independent; absolute numbers are not;
* **compare diff** — the same two reports go through ``bench
  --compare``'s :func:`repro.perf.bench.compare_reports`, and the
  op-by-op table is printed so an absolute-time regression is visible
  in the smoke output even when the machine-independent gates pass.

On success the quick report refreshes ``BENCH_PR9.json`` unless
``--no-refresh`` is given.  ``make bench-smoke`` (part of ``make
test``) passes it, so the floors and the half-speedup gate compare
against the committed report rather than one the previous run moved.
Exit status 0 means the hot paths are healthy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.bench import (
    SCHEMA,
    compare_reports,
    render,
    render_compare,
    run_bench,
    write_report,
)

REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_REPORT = REPO_ROOT / "BENCH_PR9.json"

#: In-run speedup floors (the PRs' acceptance thresholds).
FLOORS = {
    "logic_op": 5.0,
    "classify_svm_batch64": 10.0,
    "classify_bnn_batch64": 10.0,
    "compiled_step_instruction": 10.0,
    "compiled_intermittent_replay": 5.0,
}

#: A speedup below this fraction of the checked-in value is a regression.
REGRESSION_FRACTION = 0.5


def _load_prior(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as f:
            prior = json.load(f)
    except (OSError, ValueError):
        return None
    return prior if prior.get("schema") == SCHEMA else None


def run_smoke(report_path: Path = DEFAULT_REPORT, refresh: bool = True) -> int:
    prior = _load_prior(report_path)
    report = run_bench(quick=True)
    print(render(report))

    speedups = {r["op"]: r.get("speedup") for r in report["results"]}
    failures: list[str] = []
    for op, floor in FLOORS.items():
        speedup = speedups.get(op)
        if speedup is None:
            failures.append(f"{op}: no speedup measured (missing benchmark?)")
        elif speedup < floor:
            failures.append(f"{op}: speedup {speedup:.2f}x below floor {floor}x")
    if prior is not None:
        comparison = compare_reports(prior, report)
        print()
        print(render_compare(comparison))
        for entry in comparison["ops"]:
            old = entry.get("old_speedup")
            new = entry.get("new_speedup")
            if old is None or new is None:
                continue
            if new < old * REGRESSION_FRACTION:
                failures.append(
                    f"{entry['op']}: speedup regressed more than "
                    f"{1 / REGRESSION_FRACTION:.0f}x "
                    f"({old:.2f}x -> {new:.2f}x vs {report_path.name})"
                )

    if failures:
        print("\nbench-smoke FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if refresh:
        write_report(report, str(report_path))
        print(f"\nbench-smoke OK; refreshed {report_path}")
    else:
        print("\nbench-smoke OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(DEFAULT_REPORT),
        metavar="PATH",
        help="benchmark report to regress against and refresh",
    )
    parser.add_argument(
        "--no-refresh",
        action="store_true",
        help="gate only; leave the checked-in report untouched",
    )
    args = parser.parse_args(argv)
    return run_smoke(Path(args.out), refresh=not args.no_refresh)


if __name__ == "__main__":
    sys.exit(main())
