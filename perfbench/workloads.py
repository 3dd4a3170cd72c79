"""The benchmark's four seeded workloads.

Every workload turns ``--seed`` into a finite *cycle* of ops (the op
list) before anything runs; the timed loop walks the cycle and wraps
around.  Ops only call public entry points of ``repro``, looked up
through module attributes at call time, so the span recorder's wrappers
see every call.  An op returns an :class:`Outcome`: a JSON-able payload
of everything it simulated (``Breakdown`` fields, readouts, campaign or
replay report) plus the simulated instruction count.

Op kinds are laid out in fixed rounds and categorical choices
(technology, fault plan, trace family, power stratum) are balanced over
the cycle, so any stretch of the cycle a run reaches holds the same op
mix for every seed; the seed moves the values, not the mix.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import repro.compile.classifier as classifier
import repro.durability as durability
import repro.env as env
import repro.faults as faults
import repro.faults.campaign as campaign
import repro.harden as harden
import repro.perf.inference as inference
from repro.compile.classifier import CompiledBnnOutput, CompiledSvm
from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT
from repro.energy.model import InstructionCostModel
from repro.harvest import (
    ConstantPowerSource,
    EnergyBuffer,
    HarvestingConfig,
    IntermittentRun,
    ProfileRun,
    buffer_for,
)
from repro.lint import LintConfig
from repro.ml.benchmarks import ALL_WORKLOADS, BNN_FINN, SVM_ADULT

TECHS = {t.name: t for t in ALL_TECHNOLOGIES}


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


@dataclass
class Outcome:
    payload: dict
    instructions: int
    #: Extra host-side facts for :meth:`Workload.check` (not digested).
    extra: dict = field(default_factory=dict)


def _breakdown(b) -> dict:
    return dataclasses.asdict(b)


def _log_uniform(rng, lo: float, hi: float, stratum: int, strata: int) -> float:
    """One draw from stratum ``stratum`` of ``strata`` equal log-width
    strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return math.exp(a + (b - a) * (stratum + float(rng.random())) / strata)


def _perm(rng, n: int) -> list[int]:
    return [int(i) for i in rng.permutation(n)]


class Workload:
    """Base class: op list from the seed, set-up, one op, host check."""

    name = ""
    #: Index that keeps workloads' RNG streams apart for one seed.
    tag = 0
    #: Op kinds, in round order (rounds repeat through the cycle).
    kinds: tuple[str, ...] = ()
    #: Ops the traced run executes per measured second (fixed, so the
    #: traced run's counts are exact for a seed).
    trace_ops_per_second = 10
    #: Ops the referee gate re-runs: for each entry, one seeded op whose
    #: kind and categorical params match it (default: one per kind).
    #: Matching on categories keeps the gate's cost the same for every
    #: seed, so it does not move ``setup_s``.
    referee_picks: tuple[dict, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.ops = self.make_ops(np.random.default_rng([seed, self.tag]))

    def make_ops(self, rng) -> list[Op]:
        raise NotImplementedError

    def setup(self, tick: Callable[[], None]) -> None:
        """Build everything the ops need.  ``tick`` is called between
        set-up steps so the harness can sample the host speed."""
        raise NotImplementedError

    def run(self, op: Op, referee: bool = False) -> Outcome:
        """Execute one op.  The harness runs referee re-runs with
        compiled plans switched off; ``referee`` additionally asks for
        ``Mouse.run(compiled=False)`` where an op calls it."""
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> bool:
        """Host-side reference check of one op's simulated output."""
        raise NotImplementedError

    def after(self, op: Op, outcome: Optional[Outcome]) -> bool:
        """Clean-up after an op, outside the timed region; returns False
        when what the op left behind is wrong."""
        return True

    def close(self) -> None:
        pass

    def referee_sample(self, rng) -> list[int]:
        """Seeded op indices (one per referee pick) to re-run on the
        referee."""
        slots = []
        for pick in self.referee_picks or [{"kind": k} for k in self.kinds]:
            matches = [
                i
                for i, op in enumerate(self.ops)
                if op.kind == pick["kind"]
                and all(op.params[k] == v for k, v in pick.items() if k != "kind")
            ]
            slots.append(matches[int(rng.integers(len(matches)))])
        return slots


# ----------------------------------------------------------------------
# harvest_sweep: Fig 9 points on the fused constant-source engine
# ----------------------------------------------------------------------


class HarvestSweep(Workload):
    """One op = one Fig 9 point: ``ProfileRun(...).run()`` under
    ``HarvestingConfig.paper`` at a distinct seeded power."""

    name = "harvest_sweep"
    tag = 1
    kinds = ("fig9_point",)
    referee_picks = tuple(
        {"kind": "fig9_point", "technology": tech, "workload": bench}
        for tech, bench in (
            ("Modern STT", "SVM HAR"),
            ("Projected STT", "BNN FP-BNN"),
            ("Projected SHE", "SVM MNIST"),
        )
    )
    trace_ops_per_second = 900
    #: Log-uniform power strata per (technology, benchmark) pair.
    strata = 16
    lo_w, hi_w = 60e-6, 5e-3

    def make_ops(self, rng) -> list[Op]:
        ops = []
        for tech in TECHS:
            for bench in ALL_WORKLOADS:
                for k in range(self.strata):
                    ops.append(
                        Op(
                            "fig9_point",
                            {
                                "technology": tech,
                                "workload": bench.name,
                                "power_w": _log_uniform(
                                    rng, self.lo_w, self.hi_w, k, self.strata
                                ),
                            },
                        )
                    )
        return [ops[i] for i in _perm(rng, len(ops))]

    def setup(self, tick: Callable[[], None]) -> None:
        self.points = {}
        for tech in TECHS.values():
            tick()
            cost = InstructionCostModel(tech)
            for bench in ALL_WORKLOADS:
                self.points[(tech.name, bench.name)] = (
                    bench.profile(cost),
                    cost,
                    tech,
                )

    def run(self, op: Op, referee: bool = False) -> Outcome:
        profile, cost, tech = self.points[
            (op.params["technology"], op.params["workload"])
        ]
        # A shallow copy starts without the per-power segment tables the
        # fused engine caches on the profile: every point misses, as in
        # the sweep, and memory does not grow with the op count.
        run = ProfileRun(
            copy.copy(profile),
            cost,
            HarvestingConfig.paper(tech, op.params["power_w"]),
        )
        breakdown = run.run()
        return Outcome(
            {"breakdown": _breakdown(breakdown)},
            breakdown.instructions,
            {"profile_instructions": profile.instructions},
        )

    def check(self, op: Op, outcome: Outcome) -> bool:
        b = outcome.payload["breakdown"]
        return (
            b["instructions"] == outcome.extra["profile_instructions"]
            and b["restarts"] >= 0
            and all(
                math.isfinite(v) and v >= 0.0
                for k, v in b.items()
                if isinstance(v, float)
            )
        )


# ----------------------------------------------------------------------
# env_replay: back-to-back inferences under harvest traces
# ----------------------------------------------------------------------


class EnvReplay(Workload):
    """One op = one ``repro.env.replay`` of SVM ADULT or BNN FINN under
    a seeded trace, fixed or adaptive policy, ideal or leaky buffer."""

    name = "env_replay"
    tag = 2
    kinds = ("replay",)
    referee_picks = (
        {"kind": "replay", "workload": "SVM ADULT", "family": "solar",
         "adaptive": True, "leaky": True},
    )
    trace_ops_per_second = 150
    families = ("rf_burst", "solar", "kinetic")
    pool = 8  # traces per family
    leak_amps = 5e-5

    def make_ops(self, rng) -> list[Op]:
        seeds = {
            family: [int(rng.integers(2**31)) for _ in range(self.pool)]
            for family in self.families
        }
        ops = []
        for block in range(self.pool):
            combos = [
                Op(
                    "replay",
                    {
                        "workload": bench.name,
                        "family": family,
                        "trace_seed": seeds[family][block],
                        "adaptive": adaptive,
                        "leaky": leaky,
                    },
                )
                for bench in (SVM_ADULT, BNN_FINN)
                for family in self.families
                for adaptive in (False, True)
                for leaky in (False, True)
            ]
            ops.extend(combos[i] for i in _perm(rng, len(combos)))
        return ops

    @staticmethod
    def _trace(family: str, seed: int):
        if family == "solar":
            return env.solar_diurnal(
                seed=seed, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
            )
        if family == "rf_burst":
            return env.rf_burst(seed=seed, burst_watts=8e-4, idle_watts=4e-5)
        return env.kinetic(seed=seed, mean_watts=4e-4, n_steps=64)

    def setup(self, tick: Callable[[], None]) -> None:
        self.traces = {
            (op.params["family"], op.params["trace_seed"]): None for op in self.ops
        }
        for family, seed in self.traces:
            self.traces[(family, seed)] = self._trace(family, seed)
        cost = InstructionCostModel(MODERN_STT)
        self.benches = {b.name: b for b in (SVM_ADULT, BNN_FINN)}
        self.profile_instructions = {
            name: bench.profile(cost).instructions
            for name, bench in self.benches.items()
        }

    def run(self, op: Op, referee: bool = False) -> Outcome:
        p = op.params
        result = env.replay(
            self.benches[p["workload"]],
            MODERN_STT,
            self.traces[(p["family"], p["trace_seed"])],
            adaptive=env.AdaptivePolicy() if p["adaptive"] else None,
            leakage_amps=self.leak_amps if p["leaky"] else 0.0,
            checkpoint_period=2,
            max_inferences=16,
        )
        return Outcome({"replay": result.to_json_obj()}, result.instructions)

    def check(self, op: Op, outcome: Outcome) -> bool:
        r = outcome.payload["replay"]
        per = self.profile_instructions[op.params["workload"]]
        return (
            r["instructions"] == r["inferences"] * per
            and r["policy"] == ("adaptive" if op.params["adaptive"] else "fixed")
            and r["elapsed_s"] > 0.0
        )


# ----------------------------------------------------------------------
# functional_exec: bit-accurate CRAM program execution
# ----------------------------------------------------------------------


def _unique_max(x, weights, biases) -> bool:
    """True when the BNN output layer's class scores have one maximum
    (the reference argmax breaks ties, the array need not agree)."""
    scores = x @ weights + (1 - x) @ (1 - weights) + biases
    return (scores == scores.max()).sum() == 1


def _unique_argmax_bnn(rng, fan_in: int, n_classes: int, bias_max: int):
    """Seeded BNN output-layer model and input with a unique argmax."""
    while True:
        weights = rng.integers(0, 2, size=(fan_in, n_classes))
        biases = rng.integers(0, bias_max + 1, size=n_classes)
        x = rng.integers(0, 2, size=fan_in)
        if _unique_max(x, weights, biases):
            return weights.tolist(), biases.tolist(), x.tolist()


def _bnn_batch_inputs(rng, weights, biases, n: int, fan_in: int) -> list:
    w = np.asarray(weights)
    b = np.asarray(biases)
    rows = []
    while len(rows) < n:
        x = rng.integers(0, 2, size=fan_in)
        if _unique_max(x, w, b):
            rows.append(x.tolist())
    return rows


def _svm_model(rng, n_support: int, dims: int, bits: int) -> dict:
    top = (1 << bits) - 1
    return {
        "sv": rng.integers(0, top + 1, size=(n_support, dims)).tolist(),
        "coef": rng.integers(-top, top + 1, size=n_support).tolist(),
        "offset": int(rng.integers(0, top + 1)),
        "x": rng.integers(0, top + 1, size=dims).tolist(),
    }


class FunctionalExec(Workload):
    """One op = one bit-accurate execution of a compiled CRAM program on
    seeded inputs: ``Mouse.run`` on five programs, an ``IntermittentRun``
    at a seeded constant power, or a batch-64 ``repro.perf.inference``
    classification."""

    name = "functional_exec"
    tag = 3
    kinds = (
        "run_adder",
        "run_svm2x2",
        "run_bnn4x3",
        "run_svm_decision",
        "run_bnn_output",
        "intermittent",
        "batch64",
    )
    trace_ops_per_second = 25
    referee_picks = tuple(
        {"kind": kind} for kind in kinds if kind not in ("intermittent", "batch64")
    ) + (
        {"kind": "intermittent", "program": "bnn_output"},
        {"kind": "batch64", "program": "svm_decision"},
    )
    rounds = 8
    batch = 64
    #: Intermittent runs use a 1 nF buffer on the paper's voltage
    #: window, so a few-uW source forces hundreds of outages.
    intermittent_capacitance = 1e-9
    lo_w, hi_w = 1e-6, 1e-5

    def make_ops(self, rng) -> list[Op]:
        power_order = _perm(rng, self.rounds)
        ops = []
        for r in range(self.rounds):
            pairs = rng.integers(0, 16, size=(3, 2)).tolist()
            ops.append(Op("run_adder", {"pairs": pairs}))
            ops.append(Op("run_svm2x2", _svm_model(rng, 2, 2, 2)))
            w, b, x = _unique_argmax_bnn(rng, 4, 3, 7)
            ops.append(Op("run_bnn4x3", {"weights": w, "biases": b, "x": x}))
            ops.append(Op("run_svm_decision", _svm_model(rng, 1, 2, 3)))
            w, b, x = _unique_argmax_bnn(rng, 8, 3, 15)
            ops.append(Op("run_bnn_output", {"weights": w, "biases": b, "x": x}))
            program = ("svm_decision", "bnn_output")[r % 2]
            if program == "svm_decision":
                model = _svm_model(rng, 1, 2, 3)
            else:
                w, b, x = _unique_argmax_bnn(rng, 8, 3, 15)
                model = {"weights": w, "biases": b, "x": x}
            ops.append(
                Op(
                    "intermittent",
                    {
                        "program": program,
                        "power_w": _log_uniform(
                            rng, self.lo_w, self.hi_w, power_order[r], self.rounds
                        ),
                        **model,
                    },
                )
            )
            if r % 2 == 0:
                model = _svm_model(rng, 1, 2, 3)
                del model["x"]
                model["X"] = rng.integers(0, 8, size=(self.batch, 2)).tolist()
                ops.append(Op("batch64", {"program": "svm_decision", **model}))
            else:
                w, b, _ = _unique_argmax_bnn(rng, 8, 3, 15)
                X = _bnn_batch_inputs(rng, w, b, self.batch, 8)
                ops.append(
                    Op(
                        "batch64",
                        {"program": "bnn_output", "weights": w, "biases": b, "X": X},
                    )
                )
        return ops

    def setup(self, tick: Callable[[], None]) -> None:
        self.adder = campaign.adder_workload(MODERN_STT)
        self.svm2x2 = classifier.compile_svm_decision(
            n_support=2, dimensions=2, input_bits=2, sv_bits=2, coef_bits=2,
            offset_bits=2, rows=1024, n_columns=1,
        )
        self.bnn4x3 = classifier.compile_bnn_output(
            fan_in=4, n_classes=3, bias_bits=3, rows=1024
        )
        self.svm_decision = classifier.compile_svm_decision(
            n_support=1, dimensions=2, input_bits=3, sv_bits=3, coef_bits=3,
            offset_bits=3, rows=1024, n_columns=1,
        )
        self.bnn_output = classifier.compile_bnn_output(
            fan_in=8, n_classes=3, bias_bits=4, rows=256
        )
        window = buffer_for(MODERN_STT)
        self.window = (window.v_off, window.v_on)
        # One run of every op kind builds and caches each program's
        # compiled plan (and the batched plans) before timing.
        for op in self.ops[: len(self.kinds) * 2]:
            tick()
            self.run(op)

    def _machine(self, kind: str, p: dict):
        """(machine, readout function) for a single-machine op."""
        if kind == "run_adder":
            mouse = self.adder.build()
            for col, (a, c) in enumerate(p["pairs"]):
                mouse.write_value(0, 0, col, 4, a)
                mouse.write_value(0, 8, col, 4, c)
            return mouse, self.adder.readout
        compiled = {
            "run_svm2x2": self.svm2x2,
            "run_bnn4x3": self.bnn4x3,
            "svm_decision": self.svm_decision,
            "run_svm_decision": self.svm_decision,
            "bnn_output": self.bnn_output,
            "run_bnn_output": self.bnn_output,
        }[kind]
        if isinstance(compiled, CompiledSvm):
            mouse = compiled.machine(
                np.array(p["sv"]), np.array(p["coef"]), p["offset"], MODERN_STT
            )
            read = compiled.read_score
        else:
            mouse = compiled.machine(
                np.array(p["weights"]), np.array(p["biases"]), MODERN_STT
            )
            read = compiled.predict
        compiled.set_input(mouse, p["x"])
        return mouse, lambda m: [read(m)]

    def run(self, op: Op, referee: bool = False) -> Outcome:
        p = op.params
        if op.kind == "intermittent":
            mouse, readout = self._machine(p["program"], p)
            config = HarvestingConfig(
                source=ConstantPowerSource(p["power_w"]),
                buffer=EnergyBuffer(
                    capacitance=self.intermittent_capacitance,
                    v_off=self.window[0],
                    v_on=self.window[1],
                ),
            )
            breakdown = IntermittentRun(mouse, config).run()
            return Outcome(
                {"breakdown": _breakdown(breakdown), "readout": readout(mouse)},
                breakdown.instructions,
            )
        if op.kind == "batch64":
            if p["program"] == "svm_decision":
                result = inference.svm_classify_batch(
                    self.svm_decision, np.array(p["sv"]), np.array(p["coef"]),
                    p["offset"], np.array(p["X"]), MODERN_STT,
                )
            else:
                result = inference.bnn_output_predict_batch(
                    self.bnn_output, np.array(p["weights"]),
                    np.array(p["biases"]), np.array(p["X"]), MODERN_STT,
                )
            return Outcome(
                {
                    "breakdowns": [_breakdown(b) for b in result.breakdowns],
                    "readout": [int(v) for v in result.predictions],
                },
                sum(b.instructions for b in result.breakdowns),
            )
        mouse, readout = self._machine(op.kind, p)
        breakdown = mouse.run(compiled=False if referee else None).breakdown
        return Outcome(
            {"breakdown": _breakdown(breakdown), "readout": readout(mouse)},
            breakdown.instructions,
        )

    @staticmethod
    def _svm_reference(p, x) -> int:
        return CompiledSvm.reference_score(
            x, np.array(p["sv"]), np.array(p["coef"]), p["offset"]
        )

    @staticmethod
    def _bnn_reference(p, x) -> int:
        return CompiledBnnOutput.reference_prediction(
            x, np.array(p["weights"]), np.array(p["biases"])
        )

    def check(self, op: Op, outcome: Outcome) -> bool:
        p = op.params
        got = outcome.payload["readout"]
        kind = p.get("program", op.kind)
        if op.kind == "run_adder":
            want = [(a + c) % 32 for a, c in p["pairs"]]
        elif op.kind == "batch64" and kind == "svm_decision":
            want = [int(self._svm_reference(p, x) >= 0) for x in p["X"]]
        elif op.kind == "batch64":
            want = [self._bnn_reference(p, x) for x in p["X"]]
        elif "svm" in kind:
            want = [self._svm_reference(p, p["x"])]
        else:
            want = [self._bnn_reference(p, p["x"])]
        return got == want


# ----------------------------------------------------------------------
# fault_campaign: seeded campaigns on the interpreter + checkpointed runs
# ----------------------------------------------------------------------


class FaultCampaignWorkload(Workload):
    """One op = one ``FaultCampaign.run(jobs=1)`` of a few trials, or an
    ``IntermittentRun`` that writes NVImages through a
    ``durability.Checkpointer``."""

    name = "fault_campaign"
    tag = 4
    plans = ("flips_retry", "flips_no_retry", "outages", "nv_disturbs")
    kinds = tuple(f"campaign_{plan}" for plan in plans) + (
        "campaign_hardened",
        "checkpointed_run",
    )
    trace_ops_per_second = 3
    # Trials and checkpointed runs always execute on the interpreter;
    # only a campaign's golden run takes the compiled plan, so the gate
    # re-runs two bnn campaigns with plans off.
    referee_picks = (
        {"kind": "campaign_outages", "workload": "bnn"},
        {"kind": "campaign_hardened", "technology": "Projected STT"},
    )
    programs = ("adder", "svm", "bnn")
    #: Round r runs every op on technology r, and plan k on program
    #: (r + k) mod 3: over a cycle every plan meets every program and
    #: every technology once, the same pairs for every seed.
    rounds = 3
    trials = {"adder": 8, "svm": 1, "bnn": 4, "hardened-bnn": 2}
    checkpoint_capacitance = 1e-8
    lo_w, hi_w = 1e-6, 1e-5

    def make_ops(self, rng) -> list[Op]:
        techs = list(TECHS)
        power_order = _perm(rng, self.rounds)
        ops = []
        for r in range(self.rounds):
            for k, plan in enumerate(self.plans):
                ops.append(
                    Op(
                        f"campaign_{plan}",
                        {
                            "technology": techs[r],
                            "workload": self.programs[(r + k) % 3],
                            "plan": plan,
                            "seed": int(rng.integers(2**31)),
                        },
                    )
                )
            ops.append(
                Op(
                    "campaign_hardened",
                    {
                        "technology": techs[r],
                        "workload": "hardened-bnn",
                        "plan": "hardened",
                        "seed": int(rng.integers(2**31)),
                    },
                )
            )
            ops.append(
                Op(
                    "checkpointed_run",
                    {
                        "technology": techs[r],
                        "workload": self.programs[r],
                        "power_w": _log_uniform(
                            rng, self.lo_w, self.hi_w, power_order[r], self.rounds
                        ),
                    },
                )
            )
        return ops

    def setup(self, tick: Callable[[], None]) -> None:
        self.workloads: dict[tuple[str, str], Any] = {}
        self.fault_plans: dict[tuple[str, str], Any] = {}
        self.golden_instructions: dict[tuple[str, str], int] = {}
        for tech in TECHS.values():
            tick()
            for key in self.programs:
                self.workloads[(key, tech.name)] = campaign.WORKLOADS[key](tech)
            flips = faults.FaultPlan.from_variation(
                tech, sigma=0.05, trials=4_000, verify_retry=True
            )
            self.fault_plans[("flips_retry", tech.name)] = flips
            self.fault_plans[("flips_no_retry", tech.name)] = faults.FaultPlan(
                gate_flip_rates=flips.gate_flip_rates,
                verify_retry=False,
                meta=flips.meta,
            )
            self.fault_plans[("outages", tech.name)] = faults.FaultPlan(
                outage_rate=0.01
            )
            self.fault_plans[("nv_disturbs", tech.name)] = faults.FaultPlan(
                nv_corruption_rate=0.02
            )
            rates = faults.derive_gate_flip_rates(tech)
            self.fault_plans[("hardened", tech.name)] = faults.FaultPlan(
                gate_flip_rates=rates, verify_retry=False, verify_marked=True
            )
            base = self.workloads[("bnn", tech.name)]
            machine = base.build()
            bank = machine.bank
            hardened = harden.harden_program(
                machine.program,
                rates,
                LintConfig(
                    n_data_tiles=len(bank.data_tiles),
                    rows=bank.rows,
                    cols=bank.cols,
                ),
                harden.HardenPolicy(level=1.0),
            )
            self.workloads[("hardened-bnn", tech.name)] = _hardened(base, hardened)
        # Golden runs: cache every program's compiled plan before timing
        # (FaultCampaign.run executes its golden run on the plan).
        for key, workload in self.workloads.items():
            tick()
            self.golden_instructions[key] = (
                workload.build().run().breakdown.instructions
            )
        root = self.workdir / "tmp"
        root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="nvimages-", dir=root))
        self._op_dirs = 0

    def run(self, op: Op, referee: bool = False) -> Outcome:
        p = op.params
        tech = p["technology"]
        if op.kind == "checkpointed_run":
            return self._checkpointed(p)
        key = (p["workload"], tech)
        trials = self.trials[p["workload"]]
        report = faults.FaultCampaign(
            self.workloads[key],
            self.fault_plans[(p["plan"], tech)],
            trials=trials,
            seed=p["seed"],
        ).run(jobs=1)
        return Outcome(
            {"report": report.to_json_obj()},
            self.golden_instructions[key] * trials,
            {"reference": list(self.workloads[key].reference)},
        )

    def _checkpointed(self, p: dict) -> Outcome:
        workload = self.workloads[(p["workload"], p["technology"])]
        window = buffer_for(TECHS[p["technology"]])
        self._op_dirs += 1
        directory = self.tmp / f"op{self._op_dirs}"
        checkpointer = durability.Checkpointer(
            str(directory), durability.CheckpointPolicy(period=256)
        )
        mouse = workload.build()
        config = HarvestingConfig(
            source=ConstantPowerSource(p["power_w"]),
            buffer=EnergyBuffer(
                capacitance=self.checkpoint_capacitance,
                v_off=window.v_off,
                v_on=window.v_on,
            ),
        )
        breakdown = IntermittentRun(mouse, config, checkpointer=checkpointer).run()
        return Outcome(
            {
                "breakdown": _breakdown(breakdown),
                "readout": workload.readout(mouse),
                "images": checkpointer.commits,
            },
            breakdown.instructions,
            {"reference": list(workload.reference)},
        )

    def check(self, op: Op, outcome: Outcome) -> bool:
        if op.kind == "checkpointed_run":
            return outcome.payload["readout"] == outcome.extra["reference"]
        report = outcome.payload["report"]
        try:
            faults.validate_report(report)
        except ValueError:
            return False
        return (
            sum(report["outcomes"].values()) == report["trials"]
            and report["reference"] == outcome.extra["reference"]
        )

    def after(self, op: Op, outcome: Optional[Outcome]) -> bool:
        """Check the newest NVImage of a checkpointed run decodes with
        the expected sequence number, then remove the op's images."""
        if op.kind != "checkpointed_run":
            return True
        directory = self.tmp / f"op{self._op_dirs}"  # the op just run
        ok = True
        if outcome is not None:
            try:
                _, seq = durability.NVImageStore(directory).load()
                ok = seq == outcome.payload["images"]
            except (OSError, ValueError):
                ok = False
        shutil.rmtree(directory, ignore_errors=True)
        return ok

    def close(self) -> None:
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                tmp.parent.rmdir()
            except OSError:
                pass


def _hardened(base, program):
    """``base`` with trials executing the hardened ``program``: reload
    over the base machine keeps the host-written inputs."""

    def build():
        mouse = base.build()
        mouse.load(program)
        return mouse

    return campaign.Workload(
        name=f"{base.name}+hardened",
        build=build,
        readout=base.readout,
        reference=base.reference,
    )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (HarvestSweep, EnvReplay, FunctionalExec, FaultCampaignWorkload)
}
