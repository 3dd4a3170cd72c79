"""Seeded fault-injection campaigns over whole workloads.

A :class:`FaultCampaign` runs N independent trials of one workload
under one :class:`~repro.faults.plan.FaultPlan`.  Every trial builds a
fresh machine, attaches a :class:`~repro.faults.injectors.TrialInjector`
seeded with ``default_rng([seed, trial])``, steps the controller to
HALT with injections at microstep and instruction boundaries, and
classifies the outcome against a golden (fault-free) run of the same
workload:

* final data-tile memory is compared bit-for-bit, and
* the workload's readout values are compared against the golden run's.

Determinism is load-bearing: the trial RNG stream depends only on
``(seed, trial)``, the report contains no timestamps, and two runs of
the same campaign serialise byte-identically
(``tests/test_faults_campaign.py`` asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.compile import arith
from repro.compile.builder import ProgramBuilder
from repro.compile.classifier import CompiledSvm, compile_svm_decision
from repro.core.accelerator import Mouse
from repro.core.controller import InstructionBudgetExceeded, Phase
from repro.devices.parameters import MODERN_STT, DeviceParameters
from repro.faults.injectors import RetryBudgetExhausted, TrialInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import CampaignReport


@dataclass(frozen=True)
class Workload:
    """A deterministic program + readout for campaign trials.

    ``build`` returns a freshly constructed machine with the program
    loaded and all inputs written — called once for the golden run and
    once per trial, so every trial starts from identical state.
    ``readout`` extracts the result values from a halted machine;
    ``reference`` is the host-side expected value of those results.
    """

    name: str
    build: Callable[[], Mouse]
    readout: Callable[[Mouse], list[int]]
    reference: list[int]


def adder_workload(tech: DeviceParameters = MODERN_STT) -> Workload:
    """A 4-bit ripple adder over three SIMD columns (102 instructions)."""
    builder = ProgramBuilder(tile=0, rows=256, cols=8, reserved_rows=16)
    builder.activate((0, 1, 2))
    x = builder.word_at([0, 2, 4, 6])
    y = builder.word_at([8, 10, 12, 14])
    total = builder.word_at(arith.ripple_add(builder, x, y).rows)
    program = builder.finish()
    pairs = [(3, 5), (15, 15), (0, 7)]

    def build() -> Mouse:
        mouse = Mouse(tech, rows=256, cols=8)
        for col, (a, c) in enumerate(pairs):
            mouse.write_value(0, 0, col, 4, a)
            mouse.write_value(0, 8, col, 4, c)
        mouse.load(program)
        return mouse

    def readout(mouse: Mouse) -> list[int]:
        values = []
        for col in range(len(pairs)):
            value = 0
            for i, bit in enumerate(total.bits):
                value |= mouse.tile(0).get_bit(bit.row, col) << i
            values.append(value)
        return values

    return Workload(
        name="adder4x3",
        build=build,
        readout=readout,
        reference=[(a + c) % 32 for a, c in pairs],
    )


def svm_workload(tech: DeviceParameters = MODERN_STT) -> Workload:
    """A small but complete SVM decision (dot, square, accumulate)."""
    svm = compile_svm_decision(
        n_support=2,
        dimensions=2,
        input_bits=2,
        sv_bits=2,
        coef_bits=2,
        offset_bits=2,
        rows=1024,
        n_columns=1,
    )
    sv_int = np.array([[1, 2], [3, 1]])
    coef_int = np.array([2, -1])
    offset = 1
    x_int = [2, 3]

    def build() -> Mouse:
        mouse = svm.machine(sv_int, coef_int, offset, tech)
        svm.set_input(mouse, x_int)
        return mouse

    return Workload(
        name="svm2x2",
        build=build,
        readout=lambda mouse: [svm.read_score(mouse)],
        reference=[CompiledSvm.reference_score(x_int, sv_int, coef_int, offset)],
    )


def bnn_workload(tech: DeviceParameters = MODERN_STT) -> Workload:
    """A BNN output layer (XNOR-popcount scores + in-array argmax)."""
    from repro.compile.classifier import compile_bnn_output

    bnn = compile_bnn_output(fan_in=4, n_classes=3, bias_bits=3, rows=1024)
    weights01 = np.array(
        [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=int
    )
    biases = np.array([1, 0, 1], dtype=int)  # scores 4/1/3: unique argmax
    x_bits = [1, 0, 1, 1]
    scores = [
        int(np.sum(np.array(x_bits) == weights01[:, cls])) + int(biases[cls])
        for cls in range(3)
    ]
    expected = int(np.argmax(scores))

    def build() -> Mouse:
        mouse = bnn.machine(weights01, biases, tech)
        bnn.set_input(mouse, x_bits)
        return mouse

    return Workload(
        name="bnn4x3",
        build=build,
        readout=lambda mouse: [bnn.predict(mouse)],
        reference=[expected],
    )


WORKLOADS: dict[str, Callable[[DeviceParameters], Workload]] = {
    "adder": adder_workload,
    "svm": svm_workload,
    "bnn": bnn_workload,
}


class FaultCampaign:
    """N seeded trials of one workload under one fault plan."""

    def __init__(
        self,
        workload: Workload,
        plan: FaultPlan,
        trials: int = 16,
        seed: int = 0,
        telemetry=None,
        max_microsteps: int = 2_000_000,
        outage_trace=None,
    ) -> None:
        """``outage_trace`` — optional :class:`repro.env.HarvestTrace`;
        its dropouts become a deterministic power-cut schedule applied
        to every trial *in addition to* the plan's stochastic faults
        (the schedule depends only on the trace, so the campaign stays
        byte-reproducible)."""
        if trials < 1:
            raise ValueError("need at least one trial")
        self.workload = workload
        self.plan = plan
        self.trials = trials
        self.seed = seed
        self.telemetry = telemetry
        self.max_microsteps = max_microsteps
        self.outage_trace = outage_trace
        self._outage_steps: Optional[frozenset] = None

    def _resolve_obs(self):
        if self.telemetry is not None:
            t = self.telemetry
        else:
            from repro.obs import current

            t = current()
        return t if t.enabled else None

    def _trial_obs(self, parent_obs, n_jobs):
        """The hub one trial should emit to, resolved *at trial time*.

        Serial trials use the campaign's own hub.  Fanned-out trials
        run in forked workers whose ambient hub is the per-worker shard
        hub installed by the pool initializer — resolving lazily here
        (instead of once in the parent) is what routes ``fault.*``
        events into the shards rather than blacking them out.
        """
        if n_jobs <= 1:
            return parent_obs
        from repro.obs import current

        t = current()
        return t if t.enabled else None

    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> CampaignReport:
        """Run the campaign; ``jobs > 1`` fans trials across processes.

        Trials are already independent by construction — each one
        builds a fresh machine and draws from ``default_rng([seed,
        trial])`` — so the fan-out merges per-trial details back in
        trial order and the report JSON is byte-identical at any job
        count.  With ``jobs > 1`` each worker resolves its own ambient
        hub *at trial time* — the per-worker shard hub installed by the
        pool (see :mod:`repro.obs.fanout`) — so ``fault.*`` events
        survive fan-out: the parent merges the shards into the main
        event log after the pool drains.

        ``checkpoint_dir`` persists each trial's detail record the
        moment it completes; a killed campaign re-run against the same
        directory replays only the missing trials, and the merged
        report is byte-identical either way (per-trial seeding means a
        trial's outcome is the same no matter which process, or which
        resume attempt, computed it).
        """
        obs = self._resolve_obs()

        golden = self.workload.build()
        if self.outage_trace is not None:
            from repro.faults.outages import outages_from_trace

            self._outage_steps = frozenset(
                outages_from_trace(
                    self.outage_trace, golden.cost.cycle_time
                )
            )
        golden.run()
        golden_memory = golden.bank.snapshot()
        golden_values = self.workload.readout(golden)
        if golden_values != list(self.workload.reference):
            raise RuntimeError(
                f"workload {self.workload.name!r} golden run disagrees with "
                f"its reference: {golden_values} != {self.workload.reference}"
            )

        report = CampaignReport(
            workload=self.workload.name,
            trials=self.trials,
            seed=self.seed,
            plan=self.plan,
            reference=list(golden_values),
            lint=self._lint_golden(golden),
            hardening=self._hardening_summary(golden),
        )
        totals = {
            "injected": {},
            "detected": 0,
            "recovered": 0,
            "retries": 0,
            "max_retries_per_trial": 0,
        }

        from repro.durability.resume import TaskStore, run_resumable
        from repro.perf.parallel import get_default_jobs

        n_jobs = get_default_jobs() if jobs is None else jobs
        store = None
        if checkpoint_dir is not None:
            store = TaskStore(
                checkpoint_dir,
                # The trial count is deliberately absent: trial t only
                # depends on (seed, t), so extending a campaign from N
                # to M trials legitimately reuses the first N results.
                fingerprint={
                    "experiment": "faults",
                    "workload": self.workload.name,
                    "seed": self.seed,
                    "plan": self.plan.to_json_obj(),
                },
            )
        details = run_resumable(
            [f"trial-{trial}" for trial in range(self.trials)],
            [
                lambda t=trial: self._run_trial(
                    t, golden_memory, golden_values,
                    self._trial_obs(obs, n_jobs),
                )
                for trial in range(self.trials)
            ],
            store,
            jobs=n_jobs,
        )
        for detail in details:
            report.outcomes[detail["outcome"]] += 1
            for site, count in detail["injected"].items():
                totals["injected"][site] = totals["injected"].get(site, 0) + count
            totals["detected"] += detail["detected"]
            totals["recovered"] += detail["recovered"]
            totals["retries"] += detail["retries"]
            totals["max_retries_per_trial"] = max(
                totals["max_retries_per_trial"], detail["retries"]
            )
            report.details.append(detail)
        report.totals = totals
        return report

    # ------------------------------------------------------------------

    @staticmethod
    def _hardening_summary(golden: Mouse) -> Optional[dict]:
        """Placement counts of the golden program's hardening metadata
        (None for unhardened workloads) — recorded in the report so a
        campaign's SDC rate is always read next to the protection it
        was measured under."""
        meta = golden.program.harden_meta
        if not meta:
            return None
        return {
            "schema": meta.get("schema"),
            "policy": dict(meta.get("policy") or {}),
            "tmr_groups": len(meta.get("tmr_groups", ())),
            "verify_pcs": len(meta.get("verify_pcs", ())),
            "assignment": {
                k: len(v) for k, v in sorted(
                    (meta.get("assignment") or {}).items()
                )
            },
        }

    @staticmethod
    def _lint_golden(golden: Mouse) -> dict:
        """Static verdict of the golden program against the machine it
        actually loads into — recorded in the report so SDC results are
        never cited for a statically unsafe program."""
        from repro.lint import LintConfig, lint_program

        bank = golden.bank
        report = lint_program(
            golden.program,
            LintConfig(
                n_data_tiles=len(bank.data_tiles),
                rows=bank.rows,
                cols=bank.cols,
            ),
        )
        return {
            "errors": report.n_errors,
            "warnings": report.n_warnings,
            "rules": list(report.rules_fired()),
        }

    def _run_trial(
        self,
        trial: int,
        golden_memory: Sequence[np.ndarray],
        golden_values: list[int],
        obs,
    ) -> dict:
        rng = np.random.default_rng([self.seed, trial])
        mouse = self.workload.build()
        injector = TrialInjector(
            self.plan, rng, telemetry=obs, outage_steps=self._outage_steps
        )
        injector.attach(mouse)
        controller = mouse.controller

        aborted: Optional[str] = None
        abort: Optional[dict] = None
        steps = 0
        try:
            while not controller.halted:
                if steps >= self.max_microsteps:
                    raise InstructionBudgetExceeded(
                        f"trial {trial} exceeded {self.max_microsteps} microsteps"
                    )
                phase = controller.step()
                steps += 1
                if phase is Phase.COMMIT:
                    injector.after_commit(mouse)
                injector.after_microstep(mouse, phase)
        except RetryBudgetExhausted as exc:
            # The exception carries *where* the budget died, not just a
            # message — thread it into the frozen report rather than
            # flattening it to a string.
            aborted = str(exc)
            abort = {"pc": exc.pc, "gate": exc.gate, "retries": exc.retries}

        counters = injector.counters
        if obs is not None:
            obs.histogram("fault.retries_per_trial").observe(counters.retries)
        memory_match = all(
            np.array_equal(a, b)
            for a, b in zip(mouse.bank.snapshot(), golden_memory)
        )
        value_match = (
            aborted is None and self.workload.readout(mouse) == golden_values
        )
        outcome = self._classify(counters, aborted, memory_match, value_match)
        detail = {
            "trial": trial,
            "outcome": outcome,
            "injected": counters.to_json_obj()["injected"],
            "detected": counters.detected,
            "recovered": counters.recovered,
            "retries": counters.retries,
            "memory_match": memory_match,
            "value_match": value_match,
        }
        if aborted is not None:
            detail["abort_reason"] = aborted
            detail["abort"] = abort
        return detail

    @staticmethod
    def _classify(
        counters, aborted: Optional[str], memory_match: bool, value_match: bool
    ) -> str:
        if aborted is not None:
            return "detected_aborted"
        if not memory_match or not value_match:
            # Completed "successfully" with wrong state: the silent
            # corruption class the recovery layer exists to empty.
            return "sdc"
        if counters.total_injected == 0:
            return "clean"
        if (
            counters.detected > 0
            or counters.recovered > 0
            or counters.injected["outage"] > 0
        ):
            # Something fired — a verify mismatch or the power-loss
            # machinery — and the result still came out right.
            return "detected_recovered"
        return "masked"
