"""Energy-attribution profiler: bit-exact scope accounting.

The tentpole property: for every engine, attaching an
:class:`~repro.obs.prof.EnergyProfiler` changes nothing about the run
and the profiler's root breakdown equals the run's
:class:`~repro.energy.metrics.Breakdown` **bit-for-bit** — the
profiler replays the ledger's exact ``+=`` sequence on every node of
the current path, so this is equality of floats, not an isclose.
"""

import math

import pytest

from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT
from repro.energy.metrics import Category
from repro.energy.model import InstructionCostModel
from repro.faults.campaign import WORKLOADS
from repro.harvest import HarvestingConfig, ProfileRun
from repro.ml.benchmarks import ALL_WORKLOADS, SVM_ADULT
from repro.obs.prof import EnergyProfiler, validate_collapsed


class TestScopeInterning:
    def test_child_interns(self):
        prof = EnergyProfiler()
        a = prof.child(0, "svm")
        b = prof.child(a, "dot")
        assert prof.child(0, "svm") == a
        assert prof.child(a, "dot") == b
        assert prof.scope_id(("svm", "dot")) == b
        assert prof.node_path(b) == ("svm", "dot")

    def test_record_walks_current_path(self):
        prof = EnergyProfiler()
        leaf = prof.scope_id(("a", "b"))
        prof.set_scope(leaf)
        prof.record(Category.COMPUTE, 3.0, 2.0)
        prof.set_scope(prof.scope_id(("a",)))
        prof.record(Category.COMPUTE, 1.0, 1.0)
        by_name = {row.name: row for row in prof.rows()}
        assert by_name["(run)"].breakdown.compute_energy == 4.0
        assert by_name["a"].breakdown.compute_energy == 4.0
        assert by_name["a/b"].breakdown.compute_energy == 3.0
        # Self values live only at the attribution leaf.
        assert by_name["a/b"].self_energy == 3.0
        assert by_name["a"].self_energy == 1.0
        assert by_name["(run)"].self_energy == 0.0


class TestCycleAccurateAttribution:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "tech", ALL_TECHNOLOGIES, ids=lambda p: p.name
    )
    def test_root_is_bit_exact(self, name, tech):
        workload = WORKLOADS[name](tech=tech)
        mouse = workload.build()
        profiler = EnergyProfiler()
        mouse.attach_profiler(profiler)
        result = mouse.run()
        assert profiler.root == result.breakdown
        assert profiler.root is not result.breakdown

    def test_profiler_does_not_perturb_the_run(self):
        workload = WORKLOADS["svm"](tech=MODERN_STT)
        plain = workload.build()
        plain_result = plain.run()
        profiled = workload.build()
        profiled.attach_profiler(EnergyProfiler())
        assert profiled.run().breakdown == plain_result.breakdown
        assert workload.readout(profiled) == workload.readout(plain)

    def test_compile_scopes_are_visible(self):
        mouse = WORKLOADS["svm"](tech=MODERN_STT).build()
        profiler = EnergyProfiler()
        mouse.attach_profiler(profiler)
        mouse.run()
        names = {row.name for row in profiler.rows()}
        # Program frame, per-SV scopes, and nested macro scopes.
        assert any(n.endswith("/sv0") for n in names)
        assert any("ripple_add" in n for n in names)

    def test_self_values_sum_to_inclusive_total(self):
        mouse = WORKLOADS["adder"](tech=MODERN_STT).build()
        profiler = EnergyProfiler()
        mouse.attach_profiler(profiler)
        result = mouse.run()
        rows = profiler.rows()
        assert math.isclose(
            sum(r.self_energy for r in rows),
            result.breakdown.total_energy,
            rel_tol=1e-9,
        )
        assert math.isclose(
            sum(r.self_latency for r in rows),
            result.breakdown.total_latency,
            rel_tol=1e-9,
        )

    def test_detach_restores_plain_hot_path(self):
        mouse = WORKLOADS["adder"](tech=MODERN_STT).build()
        profiler = EnergyProfiler()
        mouse.attach_profiler(profiler)
        mouse.attach_profiler(None)
        mouse.run()
        assert profiler.root.total_energy == 0.0
        assert mouse.ledger.prof is None


class TestIntermittentAttribution:
    def test_bit_exact_under_outages(self):
        """Restore and dead-replay charges land on scopes too, and the
        root still replays the ledger exactly."""
        from repro.harvest.intermittent import IntermittentRun
        from tests._harness import build_kernel_machine, harvesting_config

        machine, _, _ = build_kernel_machine()
        profiler = EnergyProfiler()
        machine.attach_profiler(profiler)
        breakdown = IntermittentRun(machine, harvesting_config()).run(
            max_instructions=1_000_000
        )
        assert breakdown.restarts > 0
        assert profiler.root == breakdown
        assert profiler.root.restore_energy > 0


class TestProfileRunAttribution:
    """The ISSUE's acceptance property: all Table IV workloads x all
    three technologies, per-scope sums bit-exact vs the Breakdown."""

    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=lambda w: w.name
    )
    @pytest.mark.parametrize(
        "tech", ALL_TECHNOLOGIES, ids=lambda p: p.name
    )
    def test_root_is_bit_exact(self, workload, tech):
        cost = InstructionCostModel(tech)
        profile = workload.profile(cost)
        # Generous power keeps the closed-form run to a handful of
        # bursts; the low-power outage path is covered separately.
        config = HarvestingConfig.paper(tech, 10e-3)
        profiler = EnergyProfiler()
        breakdown = ProfileRun(
            profile, cost, config, profiler=profiler
        ).run()
        assert profiler.root == breakdown

    def test_bit_exact_with_outages_and_segments(self):
        cost = InstructionCostModel(MODERN_STT)
        profile = SVM_ADULT.profile(cost)
        config = HarvestingConfig.paper(MODERN_STT, 100e-6)
        profiler = EnergyProfiler()
        breakdown = ProfileRun(
            profile, cost, config, profiler=profiler
        ).run()
        assert breakdown.restarts > 0
        assert profiler.root == breakdown
        labels = {row.name for row in profiler.rows()}
        assert any("/" in name for name in labels)  # per-segment scopes


class TestFlamegraph:
    def _profiled(self):
        mouse = WORKLOADS["svm"](tech=MODERN_STT).build()
        profiler = EnergyProfiler()
        mouse.attach_profiler(profiler)
        mouse.run()
        return profiler

    def test_collapsed_lines_are_integer_self_values(self):
        profiler = self._profiled()
        for metric in ("energy", "time"):
            lines = profiler.flamegraph_lines(metric)
            assert lines
            for line in lines:
                stack, _, value = line.rpartition(" ")
                assert stack
                assert int(value) > 0

    def test_write_and_lint_roundtrip(self, tmp_path):
        profiler = self._profiled()
        path = tmp_path / "energy.folded"
        n = profiler.write_collapsed(path, metric="energy")
        assert validate_collapsed(path) == n > 0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            self._profiled().flamegraph_lines("watts")

    def test_lint_rejects_bad_files(self, tmp_path):
        cases = {
            "empty.folded": "",
            "novalue.folded": "a;b\n",
            "zero.folded": "a;b 0\n",
            "floatval.folded": "a;b 1.5\n",
            "emptyframe.folded": "a;;b 3\n",
            "dup.folded": "a;b 1\na;b 2\n",
        }
        for name, content in cases.items():
            path = tmp_path / name
            path.write_text(content)
            with pytest.raises(ValueError):
                validate_collapsed(path)


class TestProgramScopes:
    def test_scope_ids_cover_every_instruction(self):
        from repro.compile.classifier import compile_svm_decision

        compiled = compile_svm_decision(
            n_support=2,
            dimensions=2,
            input_bits=2,
            sv_bits=2,
            coef_bits=2,
            offset_bits=2,
            rows=1024,
            n_columns=1,
        )
        program = compiled.program
        assert len(program.scope_ids) == len(program.instructions)
        assert max(program.scope_ids) > 0
        paths = {program.scope_path(pc) for pc in range(len(program))}
        assert any(p and p[0].startswith("sv") for p in paths)

    def test_builder_scope_is_exception_safe(self):
        from repro.compile.builder import ProgramBuilder

        b = ProgramBuilder(tile=0, rows=64, cols=4, reserved_rows=8)
        with pytest.raises(RuntimeError, match="boom"):
            with b.scope("outer"):
                raise RuntimeError("boom")
        assert b.program.current_scope == 0
