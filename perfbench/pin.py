"""Regenerate the pinned output digests in ``perfbench/pinned/``.

For every requested workload and seed this executes the workload's
whole op cycle once (compiled plans on, the default engines), checks
every op against its host-side reference, and records one digest per
op together with a digest of the op list itself.  Benchmark runs then
compare every op they execute with these pins; a run whose op list no
longer matches its pin stops with an error instead of comparing stale
digests.

Usage, from the repository root::

    python3 perfbench/pin.py [--workload NAME ...] [--seeds 0-31]

Re-pin only when a workload's op list changes on purpose: a change that
moves a pinned digest without changing the op list has changed a
simulated result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pin_seed(cls, seed: int, workdir: Path) -> dict:
    from perfbench.harness import digest, ops_digest

    workload = cls(seed, workdir)
    workload.setup(lambda: None)
    try:
        outputs = []
        for slot, op in enumerate(workload.ops):
            outcome = workload.run(op)
            if not workload.check(op, outcome) or not workload.after(op, outcome):
                raise SystemExit(
                    f"{workload.name} seed {seed} op {slot} ({op.kind}) "
                    "fails its host reference check"
                )
            outputs.append(digest(outcome.payload))
    finally:
        workload.close()
    return {"ops": ops_digest(workload.ops), "outputs": "".join(outputs)}


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import DIGEST_CHARS, PINNED, WORKDIR
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    PINNED.mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        path = PINNED / f"{name}.json"
        data = (
            json.loads(path.read_text())
            if path.is_file()
            else {
                "schema": "perfbench.pinned/v1",
                "workload": name,
                "digest": f"sha256 of the op payload as canonical JSON, "
                f"first {DIGEST_CHARS} hex digits, one per op of the cycle",
                "seeds": {},
            }
        )
        for seed in _seeds(args.seeds):
            data["seeds"][str(seed)] = pin_seed(WORKLOADS[name], seed, WORKDIR)
            print(f"{name} seed {seed}: pinned", flush=True)
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
