"""Campaign reports: a stable, validated JSON artifact per campaign.

A report is pure data — the plan it ran under, per-class outcome
counts, per-site injection totals, and a per-trial detail table — with
no wall-clock timestamps, so two runs of the same (plan, workload,
seed) serialise to *byte-identical* JSON.  That property is asserted by
``tests/test_faults_campaign.py`` and is what makes a campaign a
citable artifact rather than an anecdote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Mapping

from repro.faults.plan import SITES, FaultPlan

SCHEMA = "repro.faults.report/v1.2"
#: v1.1 added the optional ``lint`` block (the golden program's static
#: verdict from :mod:`repro.lint`); v1.2 adds the optional
#: ``hardening`` block (placement counts of the golden program's
#: ``repro.harden/v1`` metadata), the structured per-trial ``abort``
#: record ({pc, gate, retries}) next to ``abort_reason``, and the
#: ``max_retries_per_trial`` total.  Earlier reports remain valid.
COMPATIBLE_SCHEMAS = (
    "repro.faults.report/v1",
    "repro.faults.report/v1.1",
    SCHEMA,
)

#: Outcome classes, from best to worst (CRAM-ER taxonomy):
#: ``clean``              — nothing was injected in this trial;
#: ``masked``             — faults were injected but the architecture
#:                          absorbed them with no detection needed
#:                          (e.g. NV corruption hidden by the parity
#:                          protocol) and the result is correct;
#: ``detected_recovered`` — detection fired (verify mismatch, power
#:                          loss) and recovery produced the correct
#:                          result;
#: ``detected_aborted``   — detection fired but the retry budget ran
#:                          out (fail-stop, never a wrong answer);
#: ``sdc``                — silent data corruption: the run completed
#:                          "successfully" with a wrong result or
#:                          corrupted memory.
OUTCOMES = ("clean", "masked", "detected_recovered", "detected_aborted", "sdc")


@dataclass
class CampaignReport:
    """Everything one :class:`repro.faults.FaultCampaign` run produced."""

    workload: str
    trials: int
    seed: int
    plan: FaultPlan
    reference: list[int]
    outcomes: dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in OUTCOMES}
    )
    totals: dict[str, Any] = field(default_factory=dict)
    details: list[dict[str, Any]] = field(default_factory=list)
    #: Static verdict of the golden program (``errors`` / ``warnings``
    #: counts and the fired ``rules``), so SDC results are never cited
    #: for a program that was statically unsafe.  None on reports
    #: produced before v1.1.
    lint: Any = None
    #: Placement counts of the golden program's hardening metadata
    #: (policy, TMR group / verify mark counts), so an SDC rate is
    #: always read next to the protection it was measured under.  None
    #: for unhardened workloads and reports before v1.2.
    hardening: Any = None

    @property
    def sdc(self) -> int:
        return self.outcomes.get("sdc", 0)

    @property
    def detected_recovered(self) -> int:
        return self.outcomes.get("detected_recovered", 0)

    def to_json_obj(self) -> dict[str, Any]:
        out = {
            "schema": SCHEMA,
            "workload": self.workload,
            "trials": self.trials,
            "seed": self.seed,
            "plan": self.plan.to_json_obj(),
            "reference": list(self.reference),
            "outcomes": {o: self.outcomes.get(o, 0) for o in OUTCOMES},
            "totals": self.totals,
            "details": self.details,
        }
        if self.lint is not None:
            out["lint"] = self.lint
        if self.hardening is not None:
            out["hardening"] = self.hardening
        return out

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys, no timestamps)."""
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def _count(value: Any, what: str) -> int:
    """``value`` as a non-negative count (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValueError(f"{what} has bad count {value!r}")
    return value


def _mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValueError(
            f"{what} must be a mapping, not {type(value).__name__}"
        )
    return value


def validate_report(obj: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming the field unless ``obj`` is a
    well-formed report (any compatible schema version)."""
    _mapping(obj, "report")
    if obj.get("schema") not in COMPATIBLE_SCHEMAS:
        raise ValueError(
            f"schema is {obj.get('schema')!r}, expected one of "
            f"{COMPATIBLE_SCHEMAS!r}"
        )
    for key in ("workload", "trials", "seed", "plan", "outcomes", "totals", "details"):
        if key not in obj:
            raise ValueError(f"report is missing {key!r}")
    trials = _count(obj["trials"], "report 'trials'")
    outcomes = _mapping(obj["outcomes"], "outcomes")
    for cls in OUTCOMES:
        _count(outcomes.get(cls), f"outcome {cls!r}")
    extra = set(outcomes) - set(OUTCOMES)
    if extra:
        raise ValueError(f"unknown outcome classes {sorted(extra)}")
    if sum(outcomes.values()) != trials:
        raise ValueError(
            f"outcome counts sum to {sum(outcomes.values())}, "
            f"expected {trials} trials"
        )
    totals = _mapping(obj["totals"], "totals")
    injected = _mapping(totals.get("injected", {}), "totals 'injected'")
    for site, count in injected.items():
        if site not in SITES:
            raise ValueError(f"unknown injection site {site!r}")
        _count(count, f"injection site {site!r}")
    details = obj["details"]
    if not isinstance(details, list):
        raise ValueError(
            f"details must be a list, not {type(details).__name__}"
        )
    if len(details) != trials:
        raise ValueError("per-trial details do not cover every trial")
    lint = obj.get("lint")
    if lint is not None:
        lint = _mapping(lint, "lint block")
        for key in ("errors", "warnings"):
            _count(lint.get(key), f"lint block {key!r}")
        if not isinstance(lint.get("rules"), list):
            raise ValueError("lint block needs a 'rules' list")
    hardening = obj.get("hardening")
    if hardening is not None:
        hardening = _mapping(hardening, "hardening block")
        for key in ("tmr_groups", "verify_pcs"):
            _count(hardening.get(key), f"hardening block {key!r}")
    for detail in details:
        abort = _mapping(detail, "per-trial detail").get("abort")
        if abort is not None:
            retries = _mapping(abort, "per-trial abort record").get("retries")
            if retries is not None:
                _count(retries, "abort record 'retries'")
    FaultPlan.from_json_obj(_mapping(obj["plan"], "plan"))  # re-validates rates


def render(report: CampaignReport) -> str:
    """Human summary of one campaign (the CLI's table)."""
    from repro.experiments._format import format_table

    injected = report.totals.get("injected", {})
    lines = [
        f"fault campaign: {report.workload!r}, {report.trials} trials, "
        f"seed {report.seed}",
        format_table(
            ["outcome", "trials"],
            [(o, report.outcomes.get(o, 0)) for o in OUTCOMES],
        ),
        "",
        format_table(
            ["site", "injected"],
            [(site, injected.get(site, 0)) for site in SITES],
        ),
        "",
        f"detected {report.totals.get('detected', 0)}, "
        f"recovered {report.totals.get('recovered', 0)}, "
        f"retries {report.totals.get('retries', 0)} "
        f"(max/trial {report.totals.get('max_retries_per_trial', 0)})",
    ]
    if report.hardening is not None:
        lines.append(
            f"hardening: {report.hardening.get('tmr_groups', 0)} TMR "
            f"group(s), {report.hardening.get('verify_pcs', 0)} verify "
            f"mark(s), policy {report.hardening.get('policy')}"
        )
    if report.lint is not None:
        fired = ",".join(report.lint.get("rules", [])) or "none"
        lines.append(
            f"golden program lint: {report.lint.get('errors', 0)} error(s), "
            f"{report.lint.get('warnings', 0)} warning(s) (rules: {fired})"
        )
    return "\n".join(lines)
