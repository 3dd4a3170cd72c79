"""Soundness of the static cost pass.

The linter's per-instruction energy bounds are *upper* bounds on what
the cycle-accurate simulator ever charges: these tests cross-check
them against telemetry-measured per-instruction energy on executed
programs, and against the closed-form Table IV workload profiles, on
all three device technologies.
"""

import json
import pathlib
import random
from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.array.bank import BROADCAST_TILE
from repro.core.program import Program
from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT
from repro.energy.model import InstructionCostModel
from repro.energy.peripheral import PeripheralModel
from repro.faults.campaign import WORKLOADS, adder_workload, svm_workload
from repro.faults.plan import derive_gate_flip_rates
from repro.harden import HardenPolicy, harden_program
from repro.harvest.capacitor import EnergyBuffer, buffer_for
from repro.isa.assembler import assemble, disassemble_one
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint import (
    CostPass,
    LintConfig,
    kind_energy_bound,
    lint_program,
    program_bounds,
    worst_gate_energy,
)
from repro.lint import cost as cost_module
from repro.lint.cost import pricing_keys, program_energy_bound
from repro.lint.passes import _diag, _masked_column_count, iter_with_masks
from repro.logic.gates import gate_energy
from repro.logic.library import GATE_LIBRARY, gate_by_name
from repro.ml.benchmarks import ALL_WORKLOADS
from repro.obs.sinks import InMemorySink
from repro.obs.telemetry import Telemetry

#: Relative slack for comparisons that are equal up to float noise:
#: telemetry measures an instruction as the difference of two large
#: accumulated ledger totals, so a long program leaves ~1e-13 relative
#: jitter on instructions whose bound is otherwise exact (HALT).
REL = 1e-9


def config_for(mouse):
    bank = mouse.bank
    return LintConfig(
        n_data_tiles=len(bank.data_tiles), rows=bank.rows, cols=bank.cols
    )


def measured_commits(mouse):
    """Run to HALT and return the per-instruction ``instr.commit``
    telemetry events."""
    sink = InMemorySink(kinds=("instr.commit",))
    mouse.attach_telemetry(Telemetry(sink))
    mouse.run()
    return sink.events


class TestWorstGateEnergy:
    @pytest.mark.parametrize("params", ALL_TECHNOLOGIES, ids=lambda p: p.name)
    def test_dominates_every_input_combination(self, params):
        for spec in GATE_LIBRARY.values():
            worst = worst_gate_energy(params, spec)
            for n_ones in range(spec.n_inputs + 1):
                assert worst >= gate_energy(params, spec, n_ones)

    def test_strictly_positive(self):
        for spec in GATE_LIBRARY.values():
            assert worst_gate_energy(MODERN_STT, spec) > 0.0


class TestBoundsDominateSimulator:
    """bound(pc).total >= measured energy for every committed
    instruction of an executed program."""

    @pytest.mark.parametrize("params", ALL_TECHNOLOGIES, ids=lambda p: p.name)
    def test_adder(self, params):
        mouse = adder_workload(params).build()
        config = config_for(mouse)
        bounds = program_bounds(
            mouse.program, config, InstructionCostModel(params)
        )
        events = measured_commits(mouse)
        assert len(events) == len(mouse.program)
        for event in events:
            bound = bounds[event.data["pc"]]
            assert bound.text == event.data["text"]
            measured = event.data["energy"]
            assert measured <= bound.total * (1 + REL), (
                f"pc {event.data['pc']} ({bound.text}): measured "
                f"{measured} > bound {bound.total}"
            )

    def test_svm(self):
        mouse = svm_workload(MODERN_STT).build()
        config = config_for(mouse)
        bounds = program_bounds(
            mouse.program, config, InstructionCostModel(MODERN_STT)
        )
        for event in measured_commits(mouse):
            bound = bounds[event.data["pc"]]
            assert event.data["energy"] <= bound.total * (1 + REL)

    def test_bounds_are_not_vacuous(self):
        """The logic bound stays within a small constant factor of the
        measured energy — it is a usable budget, not +inf."""
        params = MODERN_STT
        mouse = adder_workload(params).build()
        bounds = program_bounds(
            mouse.program, config_for(mouse), InstructionCostModel(params)
        )
        for event in measured_commits(mouse):
            bound = bounds[event.data["pc"]]
            assert bound.total <= 10 * event.data["energy"]


class TestTableIvProfiles:
    """Every closed-form workload segment (Table IV vocabulary) is
    dominated by the matching static bound, on every technology."""

    @pytest.mark.parametrize("params", ALL_TECHNOLOGIES, ids=lambda p: p.name)
    def test_all_segments_bounded(self, params):
        cost = InstructionCostModel(params)
        checked = 0
        for workload in ALL_WORKLOADS:
            profile = workload.profile(cost)
            for seg in profile.segments:
                assert seg.kind, (
                    f"{workload.name}: segment {seg.label!r} lost its kind"
                )
                energy, backup = kind_energy_bound(cost, seg.kind, seg.columns)
                assert seg.energy + seg.backup <= (energy + backup) * (1 + REL), (
                    f"{workload.name} segment {seg.label!r} "
                    f"({seg.kind} x{seg.columns}): priced "
                    f"{seg.energy + seg.backup} > bound {energy + backup}"
                )
                checked += 1
        assert checked > 100  # the profiles are not trivially empty

    def test_memory_kinds_are_exact(self):
        """READ/WRITE/ACTIVATE/PRESET bounds equal the profile prices
        (same closed form) — the slack lives only in the logic kinds."""
        cost = InstructionCostModel(MODERN_STT)
        profile = ALL_WORKLOADS[0].profile(cost)
        exact = 0
        for seg in profile.segments:
            if seg.kind in ("READ", "WRITE", "ACTIVATE", "PRESET"):
                energy, backup = kind_energy_bound(cost, seg.kind, seg.columns)
                assert seg.energy + seg.backup == pytest.approx(
                    energy + backup, rel=REL
                )
                exact += 1
        assert exact > 0


class TestCostPass:
    def test_clean_under_paper_buffers(self):
        """At the paper's capacitor configurations no adder instruction
        comes near the window: the cost pass stays silent."""
        mouse = adder_workload().build()
        report = lint_program(mouse.program, config_for(mouse))
        assert not report.by_rule("COST001")
        assert not report.by_rule("COST002")

    def test_cost001_fires_on_a_starved_buffer(self):
        """Shrink the window below one instruction's worst case and
        every instruction becomes statically non-committable."""
        mouse = adder_workload().build()
        config = config_for(mouse)
        tiny = EnergyBuffer(capacitance=1e-12, v_off=0.001, v_on=0.0011)
        starved = LintConfig(
            n_data_tiles=config.n_data_tiles,
            rows=config.rows,
            cols=config.cols,
            technologies=(MODERN_STT,),
            buffer=tiny,
        )
        diags = CostPass().run(mouse.program, starved)
        rules = {d.rule for d in diags}
        assert rules == {"COST001"}
        # Even HALT's fetch exceeds a pJ window: every instruction flags.
        assert len(diags) == len(mouse.program)

    def test_cost002_fires_when_restore_eats_the_margin(self):
        """A window that fits each instruction but not instruction +
        restore flags the restart hazard, not a hard error."""
        mouse = adder_workload().build()
        config = config_for(mouse)
        cost = InstructionCostModel(MODERN_STT)
        bounds = program_bounds(mouse.program, config, cost)
        worst = max(b.total for b in bounds)
        restore = cost.restore_energy(config.cols)
        window = worst + 0.5 * restore  # fits alone, not with restore
        v_on = 0.1
        v_off = (v_on * v_on - 2 * window / 1e-6) ** 0.5
        buffer = EnergyBuffer(capacitance=1e-6, v_off=v_off, v_on=v_on)
        assert buffer.window_energy == pytest.approx(window, rel=1e-6)
        snug = LintConfig(
            n_data_tiles=config.n_data_tiles,
            rows=config.rows,
            cols=config.cols,
            technologies=(MODERN_STT,),
            buffer=buffer,
        )
        diags = CostPass().run(mouse.program, snug)
        rules = {d.rule for d in diags}
        assert "COST002" in rules
        assert "COST001" not in rules

    def test_paper_windows_hold_many_instructions(self):
        """Sanity on the magnitudes: each paper window fits the worst
        adder instruction thousands of times over (Section VIII)."""
        mouse = adder_workload().build()
        config = config_for(mouse)
        for params in ALL_TECHNOLOGIES:
            window = buffer_for(params).window_energy
            bounds = program_bounds(
                mouse.program, config, InstructionCostModel(params)
            )
            worst = max(b.total for b in bounds)
            assert window / worst > 1e3


# ----------------------------------------------------------------------
# Differential: the memoised pricing against the per-instruction loop
# ----------------------------------------------------------------------
#
# The referee below is the cost pass as it was before pricing keys: it
# re-derives every energy from the cost model's methods and renders the
# text of every instruction.  The fast pass must match it float-``==``
# on every field, with equal text, and emit the same diagnostics.


@dataclass(frozen=True)
class _RefBound:
    index: int
    text: str
    energy: float
    backup: float
    latency: float

    @property
    def total(self) -> float:
        return self.energy + self.backup


def referee_kind_energy_bound(cost, kind, n_columns):
    backup = cost.backup_energy()
    kind = kind.upper()
    if kind == "PRESET":
        body = cost.preset_energy(max(n_columns, 1))
    elif kind == "READ":
        body = cost.row_read_energy(n_columns)
    elif kind == "WRITE":
        body = cost.row_write_energy(n_columns)
    elif kind == "ACTIVATE":
        body = cost.activate_energy(n_columns)
        backup += cost.activate_backup_energy()
    elif kind == "HALT":
        body = 0.0
        backup = 0.0
    else:
        spec = gate_by_name(kind)
        array = worst_gate_energy(cost.params, spec) * n_columns
        body = cost.logic_energy_measured(array, spec.n_inputs + 1)
    return body + cost.fetch_energy(), backup


def referee_program_bounds(program, config, cost):
    bounds = []
    latency = cost.cycle_time
    for index, instr, masks in iter_with_masks(program, config):
        backup = cost.backup_energy()
        if isinstance(instr, LogicInstruction):
            spec = instr.spec
            n = _masked_column_count(
                masks, config.target_tiles(instr.tile), config.cols
            )
            array = worst_gate_energy(cost.params, spec) * n
            body = cost.logic_energy_measured(array, spec.n_inputs + 1)
        elif isinstance(instr, MemoryInstruction):
            op = instr.op.upper()
            if op == "READ":
                body = cost.row_read_energy(config.cols)
            elif op == "WRITE":
                n_tiles = max(1, len(config.target_tiles(instr.tile)))
                body = cost.row_write_energy(config.cols) * n_tiles
            else:
                n = _masked_column_count(
                    masks, config.target_tiles(instr.tile), config.cols
                )
                body = cost.preset_energy(max(n, 1))
        elif isinstance(instr, ActivateColumnsInstruction):
            body = cost.activate_energy(instr.column_count)
            backup += cost.activate_backup_energy()
        elif isinstance(instr, HaltInstruction):
            body = 0.0
            backup = 0.0
        else:
            raise TypeError(f"cannot bound {type(instr).__name__}")
        bounds.append(
            _RefBound(
                index=index,
                text=disassemble_one(instr),
                energy=body + cost.fetch_energy(),
                backup=backup,
                latency=latency,
            )
        )
    return bounds


def referee_cost_diagnostics(program, config):
    out = []
    for params in config.technologies:
        buffer = config.buffer or buffer_for(params)
        window = buffer.window_energy
        cost = InstructionCostModel(params)
        max_activation = max(
            (
                i.column_count
                for i in program
                if isinstance(i, ActivateColumnsInstruction)
            ),
            default=0,
        )
        restore = (
            cost.restore_energy(max_activation) if max_activation else 0.0
        )
        for bound in referee_program_bounds(program, config, cost):
            if bound.total <= 0.0:
                continue
            if bound.total > window:
                out.append(
                    _diag(
                        "COST001",
                        f"worst-case energy of {bound.text!r} is "
                        f"{bound.total:.3e} J but the "
                        f"{params.name} capacitor window holds "
                        f"{window:.3e} J: the instruction can "
                        "never commit under harvested power",
                        index=bound.index,
                        hint="narrow the active-column set (the "
                        "Section IV-C power knob) or use a larger "
                        "buffer",
                    )
                )
            elif bound.total + restore > window:
                out.append(
                    _diag(
                        "COST002",
                        f"{bound.text!r} plus restart overhead "
                        f"({bound.total:.3e} + {restore:.3e} J) "
                        f"exceeds the {params.name} window "
                        f"({window:.3e} J): an outage landing "
                        "here cannot make progress",
                        index=bound.index,
                        hint="narrow the active-column set or "
                        "enlarge the buffer margin",
                    )
                )
    return out


def cost_models():
    """The three default models, then one with a non-default peripheral
    model at a technology already priced: a memo keyed by technology
    alone would hand it the default model's prices."""
    return [InstructionCostModel(p) for p in ALL_TECHNOLOGIES] + [
        InstructionCostModel(
            MODERN_STT,
            PeripheralModel(
                MODERN_STT,
                energy_share=0.3,
                address_energy=0.4,
                register_write_scale=0.35,
            ),
        )
    ]


@lru_cache(maxsize=None)
def campaign_program(name):
    """``(program, config)`` of a campaign workload; ``bnn-hardened`` is
    the bnn program hardened at level 1.0."""
    machine = WORKLOADS[name.split("-")[0]](MODERN_STT).build()
    config = config_for(machine)
    if name.endswith("-hardened"):
        rates = derive_gate_flip_rates(
            MODERN_STT, trials=2_000, scale=10.0, floor=1e-3
        )
        hardened = harden_program(
            machine.program, rates, config, HardenPolicy(level=1.0)
        )
        return hardened, config
    return machine.program, config


CORPUS = pathlib.Path(__file__).parent / "data" / "lint_corpus"
CORPUS_CONFIG = LintConfig(
    **json.loads((CORPUS / "expected.json").read_text())["config"]
)
#: The library gates with an opcode (NOR3 and OR3 have none).
LOGIC_GATES = (
    "AND", "AND3", "BUF", "MAJ3", "MIN3", "NAND", "NAND3", "NOR", "NOT", "OR"
)


def generated_program(seed):
    """A seeded raw-instruction program on a 3-tile, 16-column bank:
    broadcast and out-of-bank addresses for logic, PRESET, READ and
    WRITE, ACTIVATEs reaching past the bank width, and (in most seeds)
    one tile no ACTIVATE ever latches."""
    rng = random.Random(seed)
    n_tiles, cols = 3, 16
    never = rng.choice([None, 0, 1, 2])
    act_tiles = [t for t in range(n_tiles) if t != never]
    if never is None:
        act_tiles.append(BROADCAST_TILE)
    addresses = [0, 1, 2, BROADCAST_TILE, 7]  # tile 7 is outside the bank
    instrs = []
    for _ in range(rng.randint(30, 80)):
        draw = rng.random()
        tile = rng.choice(addresses)
        if draw < 0.2:
            target = rng.choice(act_tiles)
            if rng.random() < 0.4:
                first = rng.randrange(cols + 4)
                last = first + rng.randrange(cols)
                instrs.append(
                    ActivateColumnsInstruction(target, (first, last), bulk=True)
                )
            else:
                picked = rng.sample(range(cols + 4), rng.randint(1, 5))
                instrs.append(ActivateColumnsInstruction(target, tuple(picked)))
        elif draw < 0.55:
            gate = rng.choice(LOGIC_GATES)
            inputs = tuple(rng.sample(range(32), GATE_LIBRARY[gate].n_inputs))
            instrs.append(LogicInstruction(gate, tile, inputs, rng.randrange(32)))
        else:
            op = rng.choice(["READ", "WRITE", "PRESET0", "PRESET1"])
            instrs.append(MemoryInstruction(op, tile, rng.randrange(32)))
    instrs.append(HaltInstruction())
    config = LintConfig(n_data_tiles=n_tiles, rows=64, cols=cols)
    return Program(instrs, name=f"generated-{seed}"), config


def subject_programs():
    cases = [
        pytest.param(name, id=name)
        for name in ("adder", "svm", "bnn", "bnn-hardened")
    ]
    cases += [
        pytest.param(f"corpus:{path.name}", id=path.stem)
        for path in sorted(CORPUS.glob("*.asm"))
    ]
    cases += [pytest.param(f"generated:{seed}", id=f"gen{seed}") for seed in range(8)]
    return cases


def subject(case):
    if case.startswith("corpus:"):
        name = case.split(":", 1)[1]
        program = Program(assemble((CORPUS / name).read_text()), name=name)
        return program, CORPUS_CONFIG
    if case.startswith("generated:"):
        return generated_program(int(case.split(":", 1)[1]))
    return campaign_program(case)


class TestMatchesPerInstructionLoop:
    @pytest.mark.parametrize("case", subject_programs())
    def test_program_bounds(self, case):
        program, config = subject(case)
        for cost in cost_models():
            fast = program_bounds(program, config, cost)
            slow = referee_program_bounds(program, config, cost)
            assert len(fast) == len(slow) == len(program)
            for got, want in zip(fast, slow):
                assert (got.index, got.energy, got.backup, got.latency) == (
                    want.index,
                    want.energy,
                    want.backup,
                    want.latency,
                ), (cost, want.text)
                assert got.total == want.total
                assert got.text == want.text
            # What harden.overhead_summary adds up.
            assert sum(b.total for b in fast) == sum(b.total for b in slow)
            assert program_energy_bound(program, config, cost) == sum(
                b.total for b in slow
            )

    @pytest.mark.parametrize("case", subject_programs())
    def test_diagnostics_under_starved_and_snug_buffers(self, case):
        """COST001 on every instruction under a starved buffer, and a
        window that admits the worst instruction but not with restore:
        the diagnostics equal the referee's, message bytes included."""
        program, config = subject(case)
        cost = InstructionCostModel(MODERN_STT)
        worst = max(b.total for b in referee_program_bounds(program, config, cost))
        window = worst * 1.0001
        v_on = 0.1
        v_off = (v_on * v_on - 2 * window / 1e-6) ** 0.5
        buffers = (
            EnergyBuffer(capacitance=1e-12, v_off=0.001, v_on=0.0011),
            EnergyBuffer(capacitance=1e-6, v_off=v_off, v_on=v_on),
        )
        for buffer in buffers:
            for technologies in ((MODERN_STT,), ALL_TECHNOLOGIES):
                starved = LintConfig(
                    n_data_tiles=config.n_data_tiles,
                    rows=config.rows,
                    cols=config.cols,
                    technologies=technologies,
                    buffer=buffer,
                )
                got = CostPass().run(program, starved)
                assert got == referee_cost_diagnostics(program, starved)
                assert [d.message for d in got] == [
                    d.message
                    for d in referee_cost_diagnostics(program, starved)
                ]
        starved_diags = CostPass().run(
            program,
            LintConfig(
                n_data_tiles=config.n_data_tiles,
                rows=config.rows,
                cols=config.cols,
                technologies=(MODERN_STT,),
                buffer=buffers[0],
            ),
        )
        assert [d.index for d in starved_diags] == list(range(len(program)))

    def test_kind_energy_bound(self):
        kinds = ["PRESET", "preset", "READ", "WRITE", "ACTIVATE", "HALT"]
        kinds += sorted(GATE_LIBRARY) + ["nand", "Maj3"]
        for cost in cost_models():
            # Prime the memo through a program first, so kind lookups
            # hit energies the program pass computed.
            program_bounds(*campaign_program("adder"), cost)
            for kind in kinds:
                for n_columns in (0, 1, 3, 8, 256, 1024):
                    assert kind_energy_bound(
                        cost, kind, n_columns
                    ) == referee_kind_energy_bound(cost, kind, n_columns)

    def test_paper_windows_lint_clean_like_the_referee(self):
        for case in ("adder", "svm", "bnn", "bnn-hardened"):
            program, config = campaign_program(case)
            assert CostPass().run(program, config) == referee_cost_diagnostics(
                program, config
            ) == []


class TestCostPassSpies:
    def test_clean_lint_renders_no_text(self, monkeypatch):
        """A clean svm lint prices keys only: the cost pass renders no
        instruction text."""
        calls = []

        def spy(instr):
            calls.append(instr)
            return disassemble_one(instr)

        monkeypatch.setattr(cost_module, "disassemble_one", spy)
        source, config = campaign_program("svm")
        program = Program(list(source.instructions), name="svm-copy")
        assert lint_program(program, config).ok
        assert CostPass().run(program, config) == []
        assert calls == []
        # A starved buffer names every instruction, so each renders once
        # per technology.
        starved = LintConfig(
            n_data_tiles=config.n_data_tiles,
            rows=config.rows,
            cols=config.cols,
            technologies=(MODERN_STT,),
            buffer=EnergyBuffer(capacitance=1e-12, v_off=0.001, v_on=0.0011),
        )
        diags = CostPass().run(program, starved)
        assert len(calls) == len(diags) == len(program)

    @pytest.mark.parametrize("case", ["adder", "svm", "bnn-hardened", "generated:3"])
    def test_memo_holds_only_the_programs_keys(self, monkeypatch, case):
        """After a lint, the column-keyed energies of each cost model
        the pass made hold only the counts the program's distinct keys
        use."""
        made = []

        def spy(params):
            cost = InstructionCostModel(params)
            made.append(cost)
            return cost

        monkeypatch.setattr(cost_module, "InstructionCostModel", spy)
        source, config = subject(case)
        program = Program(list(source.instructions), name="copy")
        lint_program(program, config)
        assert [c.params for c in made] == list(config.technologies)
        keys = pricing_keys(program, config).distinct
        assert len(keys) < len(program)

        def used(kind):
            return {n for k, n, _ in keys if k == kind}

        widest = max(used("ACTIVATE"), default=0)
        for cost in made:
            memo = cost.prices
            assert set(memo.preset) == {max(n, 1) for n in used("PRESET")}
            assert set(memo.row_read) == used("READ")
            assert set(memo.row_write) == used("WRITE")
            assert set(memo.activate) == used("ACTIVATE")
            assert set(memo.restore) == ({widest} if widest else set())

    def test_keys_are_classified_once_per_bank_shape(self):
        program, config = generated_program(5)
        first = pricing_keys(program, config)
        assert pricing_keys(program, config) is first
        other = LintConfig(n_data_tiles=config.n_data_tiles, cols=8, rows=64)
        assert pricing_keys(program, other) is not first
        program.append(HaltInstruction())  # any change drops the keys
        assert pricing_keys(program, config) is not first
