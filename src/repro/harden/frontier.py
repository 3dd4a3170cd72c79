"""Yield-vs-energy-overhead frontier: protection level x technology.

For each Table IV workload (SVM, BNN) and device technology, the sweep
hardens the compiled program at a range of protection levels and runs a
seeded :class:`~repro.faults.FaultCampaign` per point, reporting:

* the **measured** SDC rate (fraction of trials that completed with
  silently wrong memory or readout),
* the **statically proven** bound from :func:`repro.harden.bound.
  sdc_bound` — which must dominate the measurement at every point, the
  soundness check the ``harden`` CLI and its tests assert, and
* the worst-case **energy overhead** of the hardened program from the
  lint cost pass, the currency protection is bought with.

The flip-rate table is the device Monte Carlo's, rescaled so each
unhardened trial sees on the order of ``target_flips`` expected flips:
half the mass through a multiplicative ``scale`` on the measured rates
(bounded at 1) and half through an additive ``floor`` — the floor is
what gives technologies whose Monte Carlo rounds to zero (Projected
SHE) a non-degenerate campaign.  The exact plan, scale and floor are
embedded in every point, so each point is reproducible standalone.

Determinism and resumability follow the campaign's discipline: every
point depends only on ``(workload, technology, level, trials, seed)``,
points fan out across processes through
:func:`~repro.durability.resume.run_resumable`, and the merged report
is byte-identical at any ``--jobs`` count and across kill/resume
cycles.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.devices.parameters import ALL_TECHNOLOGIES, DeviceParameters
from repro.faults.campaign import FaultCampaign, Workload, WORKLOADS
from repro.faults.plan import FaultPlan, derive_gate_flip_rates
from repro.harden.bound import bound_for_plan
from repro.harden.criticality import analyse
from repro.harden.transform import HardenPolicy, harden_program, overhead_summary
from repro.lint.config import LintConfig

SCHEMA = "repro.harden.frontier/v1"

DEFAULT_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_WORKLOADS = ("svm", "bnn")

#: Measured-SDC improvement full hardening must demonstrate (ISSUE
#: acceptance: >= 10x vs unhardened at the same flip rates).
REQUIRED_IMPROVEMENT = 10.0


def tech_slug(params: DeviceParameters) -> str:
    return params.name.lower().replace(" ", "-")


def _scaled_plan(
    params: DeviceParameters,
    program,
    config: LintConfig,
    target_flips: float,
) -> FaultPlan:
    """A verify-off plan whose rates put ~``target_flips`` expected
    flips into one unhardened trial of ``program``."""
    base = derive_gate_flip_rates(params)
    report = analyse(program, base, config)
    weight = sum(r.n_columns * r.flip_rate for r in report.records)
    total_cols = sum(r.n_columns for r in report.records)
    scale = min(1.0, (target_flips / 2.0) / weight) if weight > 0 else 1.0
    floor = (target_flips / 2.0) / total_cols if total_cols else 0.0
    rates = {
        name: min(1.0, max(floor, rate * scale)) for name, rate in base.items()
    }
    return FaultPlan(
        gate_flip_rates=rates,
        verify_retry=False,
        verify_marked=True,
        meta={
            "derived_from": "devices.variation.gate_error_rate",
            "technology": params.name,
            "target_flips": target_flips,
            "scale": scale,
            "floor": floor,
        },
    )


def _hardened_workload(base: Workload, hardened) -> Workload:
    """The same workload, but trials execute the hardened program.

    ``Mouse.load`` replaces only the instruction tiles — the host data
    the builder wrote stays put — so reloading over the base machine is
    exactly "same inputs, protected program"."""

    def build():
        mouse = base.build()
        mouse.load(hardened)
        return mouse

    return Workload(
        name=f"{base.name}+hardened",
        build=build,
        readout=base.readout,
        reference=base.reference,
    )


def _run_point(
    workload_key: str,
    params: DeviceParameters,
    level: float,
    trials: int,
    seed: int,
    target_flips: float,
    tmr_share: float,
) -> dict:
    """One frontier point: harden at ``level``, campaign, bound, cost."""
    base = WORKLOADS[workload_key](params)
    machine = base.build()
    program = machine.program
    bank = machine.bank
    config = LintConfig(
        n_data_tiles=len(bank.data_tiles), rows=bank.rows, cols=bank.cols
    )
    plan = _scaled_plan(params, program, config, target_flips)
    rates = dict(plan.gate_flip_rates)
    crit = analyse(program, rates, config)
    policy = HardenPolicy(level=level, tmr_share=tmr_share)
    hardened = harden_program(program, rates, config, policy, report=crit)
    workload = _hardened_workload(base, hardened) if level > 0 else base
    report = FaultCampaign(workload, plan, trials=trials, seed=seed).run(jobs=1)

    subject = hardened if level > 0 else program
    bound = bound_for_plan(subject, plan, config)
    overhead = overhead_summary(program, subject, config, params)
    sdc_rate = report.outcomes["sdc"] / trials
    meta = subject.harden_meta or {}
    return {
        "workload": base.name,
        "technology": params.name,
        "level": level,
        "trials": trials,
        "seed": seed,
        "plan": plan.to_json_obj(),
        "outcomes": dict(report.outcomes),
        "sdc_rate": sdc_rate,
        "yield": 1.0 - sdc_rate,
        "sdc_bound": bound.to_json_obj(),
        "bound_dominates": bound.total >= sdc_rate,
        "energy_overhead": overhead["energy_overhead"],
        "energy_bound_j": overhead["energy_bound_j"],
        "instructions": overhead["instructions"],
        "protection": {
            "tmr_groups": len(meta.get("tmr_groups", ())),
            "verify_pcs": len(meta.get("verify_pcs", ())),
        },
        "retries": report.totals.get("retries", 0),
    }


def run_frontier(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    technologies: Sequence[DeviceParameters] = ALL_TECHNOLOGIES,
    levels: Sequence[float] = DEFAULT_LEVELS,
    trials: int = 32,
    seed: int = 11,
    target_flips: float = 1.0,
    tmr_share: float = 0.25,
    jobs: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
) -> dict:
    """Sweep the full frontier and return the canonical report dict."""
    from repro.durability.resume import TaskStore, run_resumable

    for key in workloads:
        if key not in WORKLOADS:
            raise ValueError(
                f"unknown workload {key!r}; choose from {sorted(WORKLOADS)}"
            )
    levels = tuple(float(v) for v in levels)
    points = [
        (wl, params, level)
        for wl in workloads
        for params in technologies
        for level in levels
    ]
    keys = [
        f"{wl}-{tech_slug(params)}-L{level:g}" for wl, params, level in points
    ]
    store = None
    if checkpoint_dir is not None:
        store = TaskStore(
            checkpoint_dir,
            fingerprint={
                "experiment": "harden-frontier",
                "workloads": list(workloads),
                "technologies": [p.name for p in technologies],
                "levels": list(levels),
                "trials": trials,
                "seed": seed,
                "target_flips": target_flips,
                "tmr_share": tmr_share,
            },
        )
    results = run_resumable(
        keys,
        [
            lambda wl=wl, params=params, level=level: _run_point(
                wl, params, level, trials, seed, target_flips, tmr_share
            )
            for wl, params, level in points
        ],
        store,
        jobs=jobs,
    )
    report = {
        "schema": SCHEMA,
        "trials": trials,
        "seed": seed,
        "target_flips": target_flips,
        "tmr_share": tmr_share,
        "levels": list(levels),
        "workloads": list(workloads),
        "technologies": [p.name for p in technologies],
        "points": results,
    }
    report["checks"] = check_frontier(report)
    return report


#: One-sided significance for the dominance check: a measured rate
#: above the bound only *fails* when the exact binomial tail
#: P(X >= x | n, p=bound) drops below this — i.e. when the campaign
#: statistically refutes the bound rather than merely fluctuating
#: over it.  The bound is a statement about the SDC *probability*; an
#: empirical rate over n trials sits a binomial's width away from it,
#: and on near-tight points (single-column programs, where every
#: unprotected flip is an SDC) honest sampling noise crosses the line
#: about half the time.
DOMINANCE_ALPHA = 0.01


def binomial_tail(successes: int, trials: int, p: float) -> float:
    """Exact one-sided tail P(X >= successes) for X ~ Binomial(trials, p)."""
    if successes <= 0:
        return 1.0
    if p >= 1.0:
        return 1.0
    if p <= 0.0:
        return 0.0
    q = 1.0 - p
    # Sum the lower tail P(X < successes) with incremental pmf terms.
    pmf = q**trials
    cdf = pmf
    for k in range(1, successes):
        pmf *= (trials - k + 1) / k * (p / q)
        cdf += pmf
    return max(0.0, min(1.0, 1.0 - cdf))


def check_frontier(report: dict) -> dict:
    """The two acceptance properties, evaluated over a merged report.

    * **dominance** — the statically proven bound is >= the measured
      SDC rate at *every* swept point, up to binomial sampling noise:
      a point whose measured rate exceeds the bound still passes when
      the exact one-sided tail P(X >= x | n, p=bound) is at least
      :data:`DOMINANCE_ALPHA` (the campaign is consistent with the
      bound); it fails when the tail is smaller (the campaign refutes
      the bound).  Points without a ``trials`` count (hand-built) get
      the strict comparison.
    * **improvement** — on each (workload, technology) curve, full
      hardening cuts the measured SDC rate by at least
      :data:`REQUIRED_IMPROVEMENT` versus the unhardened point (a
      hardened rate of exactly zero passes whenever the unhardened
      rate is positive).
    """
    failures: list[str] = []
    curves: dict[tuple[str, str], list[dict]] = {}
    for point in report["points"]:
        if not point["bound_dominates"]:
            trials = int(point.get("trials") or 0)
            bound = float(point["sdc_bound"]["total"])
            if trials:
                hits = round(point["sdc_rate"] * trials)
                tail = binomial_tail(hits, trials, bound)
                if tail >= DOMINANCE_ALPHA:
                    continue  # noise over a (near-)tight bound
                noise = f" (p={tail:.2e}, n={trials})"
            else:
                noise = ""
            failures.append(
                f"{point['workload']} / {point['technology']} L{point['level']:g}: "
                f"bound {point['sdc_bound']['total']:.4f} < measured "
                f"{point['sdc_rate']:.4f}{noise}"
            )
        curves.setdefault(
            (point["workload"], point["technology"]), []
        ).append(point)
    improvements: dict[str, float] = {}
    for (workload, technology), pts in sorted(curves.items()):
        pts = sorted(pts, key=lambda p: p["level"])
        lo, hi = pts[0], pts[-1]
        label = f"{workload} / {technology}"
        if hi["level"] <= lo["level"]:
            continue  # single-level sweep: nothing to compare
        if lo["sdc_rate"] == 0.0:
            failures.append(
                f"{label}: unhardened SDC rate is zero — the sweep cannot "
                "demonstrate improvement (raise target_flips or trials)"
            )
            continue
        ratio = (
            float("inf")
            if hi["sdc_rate"] == 0.0
            else lo["sdc_rate"] / hi["sdc_rate"]
        )
        improvements[label] = ratio
        if ratio < REQUIRED_IMPROVEMENT:
            failures.append(
                f"{label}: full hardening improves SDC only "
                f"{ratio:.1f}x (< {REQUIRED_IMPROVEMENT:g}x): "
                f"{lo['sdc_rate']:.4f} -> {hi['sdc_rate']:.4f}"
            )
    return {
        "ok": not failures,
        "failures": failures,
        "improvement": {
            k: ("inf" if v == float("inf") else v)
            for k, v in sorted(improvements.items())
        },
    }


def report_json(report: dict) -> str:
    """Canonical serialisation (sorted keys): byte-identical across
    job counts and resume cycles."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def format_table(report: dict) -> str:
    """The frontier as an aligned text table, one row per point."""
    header = (
        f"{'workload':<16} {'technology':<14} {'level':>5} "
        f"{'sdc':>7} {'bound':>7} {'yield':>7} {'e-ovh':>7} "
        f"{'tmr':>4} {'vrfy':>5}"
    )
    lines = [header, "-" * len(header)]
    for point in report["points"]:
        lines.append(
            f"{point['workload']:<16} {point['technology']:<14} "
            f"{point['level']:>5.2f} {point['sdc_rate']:>7.4f} "
            f"{point['sdc_bound']['total']:>7.4f} {point['yield']:>7.4f} "
            f"{point['energy_overhead']:>7.3f} "
            f"{point['protection']['tmr_groups']:>4} "
            f"{point['protection']['verify_pcs']:>5}"
        )
    checks = report.get("checks", {})
    lines.append("")
    lines.append(
        "checks: "
        + ("ok" if checks.get("ok") else "FAILED")
        + (
            ""
            if checks.get("ok")
            else "\n  " + "\n  ".join(checks.get("failures", ()))
        )
    )
    return "\n".join(lines)


__all__ = [
    "SCHEMA",
    "DEFAULT_LEVELS",
    "DEFAULT_WORKLOADS",
    "REQUIRED_IMPROVEMENT",
    "check_frontier",
    "format_table",
    "report_json",
    "run_frontier",
    "tech_slug",
]
