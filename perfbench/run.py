"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload harvest_sweep --seed 1 \
        --seconds 10 --trace 0

``--workload`` is one of ``harvest_sweep``, ``env_replay``,
``functional_exec`` or ``fault_campaign``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics from a
separate traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin native thread pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("harvest_sweep", "env_replay", "functional_exec", "fault_campaign")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, run the referee gate, print setup_s and exit",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.run(args, _T0)


if __name__ == "__main__":
    sys.exit(main())
