"""Where the wall time of ``python -m repro all`` goes, by experiment.

A one-off measurement, not a benchmark workload: it runs every entry of
``repro.experiments.runner.EXPERIMENTS`` once, in-process and in runner
order, with stdout suppressed, and records each entry's host wall time
and its share of the total.  This is the data point that explains why
the benchmark has a ``fault_campaign`` workload: the fault campaigns
and the hardening frontier, both driven by the ``core.controller``
interpreter, dominate paper regeneration.

Usage (from the repository root)::

    python3 perfbench/regen_share.py [--out perfbench/regen_share.json]

It pins BLAS/OpenMP to one thread and leaves the default job count at
1, like the benchmark.  A full run takes a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.runner import EXPERIMENTS
    from repro.perf.parallel import get_default_jobs

    if get_default_jobs() != 1:
        raise SystemExit("default job count is not 1")
    rows = []
    for name, entry in EXPERIMENTS:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            entry()
        rows.append({"experiment": name, "wall_s": time.perf_counter() - start})
    total = sum(r["wall_s"] for r in rows)
    for r in rows:
        r["share"] = r["wall_s"] / total
    return {
        "schema": "perfbench.regen_share/v1",
        "what": "host wall time of each repro.experiments.runner.EXPERIMENTS "
        "entry, run once in-process in runner order (= python -m repro all)",
        "host": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "threads": 1,
        },
        "total_s": total,
        "experiments": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(ROOT / "perfbench" / "regen_share.json")
    )
    args = parser.parse_args()
    report = measure()
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for r in sorted(report["experiments"], key=lambda r: -r["wall_s"]):
        print(f"{r['share'] * 100:5.1f}%  {r['wall_s']:7.2f} s  {r['experiment']}")
    print(f"total {report['total_s']:.1f} s -> {args.out}")


if __name__ == "__main__":
    main()
