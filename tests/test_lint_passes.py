"""Unit tests for the repro.lint pass pipeline: one test per rule,
plus the diagnostic machinery, the rule catalog, construction-time
address validation, and the builder's strict finish gate."""

import json

import pytest

from repro.array.bank import BROADCAST_TILE, SENSOR_TILE
from repro.compile.builder import ProgramBuilder
from repro.core.program import Program
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint import (
    RULES,
    ActivatePass,
    Diagnostic,
    IdempotencyPass,
    LintConfig,
    LintError,
    Linter,
    ParityPass,
    PresetPass,
    Severity,
    StructurePass,
    default_passes,
    lint_program,
    rule,
)

CONFIG = LintConfig(n_data_tiles=1, rows=256, cols=8)


def prog(*instructions) -> Program:
    return Program(list(instructions), name="test")


def activate(*columns, tile=0):
    return ActivateColumnsInstruction(tile=tile, columns=tuple(columns))


def preset0(row, tile=0):
    return MemoryInstruction(op="PRESET0", tile=tile, row=row)


def preset1(row, tile=0):
    return MemoryInstruction(op="PRESET1", tile=tile, row=row)


def nand(inputs, out, tile=0):
    return LogicInstruction(
        gate="NAND", tile=tile, input_rows=tuple(inputs), output_row=out
    )


def rules_of(diagnostics):
    return sorted({d.rule for d in diagnostics})


GOOD = prog(
    activate(0),
    preset0(9),
    nand((0, 2), 9),
    HaltInstruction(),
)


class TestRuleCatalog:
    def test_ids_are_unique_and_self_consistent(self):
        for rule_id, r in RULES.items():
            assert r.id == rule_id
            assert r.severity in (Severity.ERROR, Severity.WARNING)
            assert r.title
            assert r.why  # every rule cites its paper justification

    def test_lookup(self):
        assert rule("IDEM001").severity is Severity.ERROR
        with pytest.raises(KeyError):
            rule("NOPE999")

    def test_families_present(self):
        families = {rule_id[:3] for rule_id in RULES}
        assert {"IDE", "PAR", "PRE", "ACT", "STR", "COS"} <= families

    def test_docs_catalog_in_sync(self):
        """docs/LINT.md documents every rule with its severity."""
        import pathlib

        doc = (
            pathlib.Path(__file__).parent.parent / "docs" / "LINT.md"
        ).read_text()
        for rule_id, r in RULES.items():
            assert f"`{rule_id}`" in doc, f"{rule_id} missing from docs/LINT.md"
            assert f"| `{rule_id}` | {r.severity} |" in doc, (
                f"{rule_id} severity drifted from docs/LINT.md"
            )


class TestDiagnostics:
    def test_str_and_json(self):
        d = Diagnostic(
            rule="PAR001",
            severity=Severity.ERROR,
            message="boom",
            index=12,
            tile=0,
            row=9,
            hint="fix it",
        )
        text = str(d)
        assert "error[PAR001]" in text
        assert "@12" in text
        assert "fix it" in text
        obj = d.to_json_obj()
        assert obj["rule"] == "PAR001"
        assert obj["severity"] == "error"
        assert obj["row"] == 9

    def test_json_omits_unset_locus(self):
        d = Diagnostic(rule="STRUCT003", severity=Severity.ERROR, message="x")
        obj = d.to_json_obj()
        assert "tile" not in obj and "row" not in obj and "index" not in obj

    def test_report_counts_and_determinism(self):
        linter = Linter(CONFIG)
        report = linter.run(GOOD, name="good")
        assert report.ok and report.clean
        assert report.n_errors == 0 and report.n_warnings == 0
        assert report.rules_fired() == ()
        assert report.to_json() == linter.run(GOOD, name="good").to_json()
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro.lint.report/v1"
        assert payload["instructions"] == len(GOOD)


class TestIdempotencyPass:
    def test_clean(self):
        assert IdempotencyPass().run(GOOD, CONFIG) == []

    def test_idem001_output_is_input(self):
        p = prog(activate(0), preset0(2), nand((0, 2), 2), HaltInstruction())
        diags = IdempotencyPass().run(p, CONFIG)
        assert rules_of(diags) == ["IDEM001"]
        assert diags[0].index == 2
        assert diags[0].row == 2

    def test_idem002_duplicate_input(self):
        p = prog(activate(0), preset0(5), nand((2, 2), 5), HaltInstruction())
        diags = IdempotencyPass().run(p, CONFIG)
        assert rules_of(diags) == ["IDEM002"]


class TestParityPass:
    def test_clean(self):
        assert ParityPass().run(GOOD, CONFIG) == []

    def test_par001_mixed_inputs(self):
        p = prog(activate(0), preset0(9), nand((0, 1), 9), HaltInstruction())
        diags = ParityPass().run(p, CONFIG)
        assert rules_of(diags) == ["PAR001"]

    def test_par002_output_same_parity(self):
        p = prog(activate(0), preset0(4), nand((0, 2), 4), HaltInstruction())
        diags = ParityPass().run(p, CONFIG)
        assert rules_of(diags) == ["PAR002"]
        assert diags[0].row == 4

    def test_par001_suppresses_par002(self):
        # With inputs on both parities there is no "right" output
        # parity to check against; only PAR001 fires.
        p = prog(activate(0), preset0(8), nand((0, 1), 8), HaltInstruction())
        assert rules_of(ParityPass().run(p, CONFIG)) == ["PAR001"]


class TestPresetPass:
    def test_clean(self):
        assert PresetPass().run(GOOD, CONFIG) == []

    def test_pre001_never_preset(self):
        p = prog(activate(0), nand((0, 2), 9), HaltInstruction())
        diags = PresetPass().run(p, CONFIG)
        assert rules_of(diags) == ["PRE001"]

    def test_pre001_consumed_preset(self):
        # The first gate consumes the preset; the second fires into a
        # row last written by a gate.
        p = prog(
            activate(0),
            preset0(9),
            nand((0, 2), 9),
            nand((0, 2), 9),
            HaltInstruction(),
        )
        diags = PresetPass().run(p, CONFIG)
        assert rules_of(diags) == ["PRE001"]
        assert diags[0].index == 3

    def test_pre002_wrong_polarity(self):
        p = prog(activate(0), preset1(9), nand((0, 2), 9), HaltInstruction())
        diags = PresetPass().run(p, CONFIG)
        assert rules_of(diags) == ["PRE002"]

    def test_pre003_dead_store(self):
        p = prog(
            activate(0),
            preset0(9),
            preset0(9),
            nand((0, 2), 9),
            HaltInstruction(),
        )
        diags = PresetPass().run(p, CONFIG)
        assert rules_of(diags) == ["PRE003"]
        assert diags[0].index == 1  # flagged at the wasted preset
        assert diags[0].severity is Severity.WARNING

    def test_pre004_write_before_read(self):
        p = prog(
            activate(0),
            MemoryInstruction(op="WRITE", tile=0, row=8),
            HaltInstruction(),
        )
        diags = PresetPass().run(p, CONFIG)
        assert rules_of(diags) == ["PRE004"]

    def test_write_after_read_is_clean(self):
        p = prog(
            activate(0),
            MemoryInstruction(op="READ", tile=0, row=4),
            MemoryInstruction(op="WRITE", tile=0, row=8),
            HaltInstruction(),
        )
        assert PresetPass().run(p, CONFIG) == []

    def test_pre005_mask_grew(self):
        p = prog(
            activate(0),
            preset0(9),
            activate(0, 1),
            nand((0, 2), 9),
            HaltInstruction(),
        )
        diags = PresetPass().run(p, CONFIG)
        assert rules_of(diags) == ["PRE005"]

    def test_mask_shrink_is_clean(self):
        p = prog(
            activate(0, 1),
            preset0(9),
            activate(0),
            nand((0, 2), 9),
            HaltInstruction(),
        )
        assert PresetPass().run(p, CONFIG) == []

    def test_host_loaded_inputs_are_not_errors(self):
        # Rows 0 and 2 are never defined by the program: they are the
        # inputs the host wrote before launch.
        assert PresetPass().run(GOOD, CONFIG) == []


class TestActivatePass:
    def test_clean(self):
        assert ActivatePass().run(GOOD, CONFIG) == []

    def test_act001_no_mask(self):
        p = prog(preset0(9), nand((0, 2), 9), HaltInstruction())
        diags = ActivatePass().run(p, CONFIG)
        assert rules_of(diags) == ["ACT001"]
        assert [d.index for d in diags] == [0, 1]

    def test_act002_redundant(self):
        p = prog(
            activate(0),
            preset0(9),
            activate(0),
            nand((0, 2), 9),
            HaltInstruction(),
        )
        diags = ActivatePass().run(p, CONFIG)
        assert rules_of(diags) == ["ACT002"]

    def test_act003_replaced_before_use(self):
        p = prog(
            activate(0),
            activate(0, 1),
            preset0(9),
            nand((0, 2), 9),
            HaltInstruction(),
        )
        diags = ActivatePass().run(p, CONFIG)
        assert rules_of(diags) == ["ACT003"]
        assert diags[0].index == 0


class TestStructurePass:
    def test_clean(self):
        assert StructurePass().run(GOOD, CONFIG) == []

    def test_struct001_tile_out_of_range(self):
        p = prog(activate(0), preset0(9, tile=2), HaltInstruction())
        diags = StructurePass().run(p, CONFIG)
        assert rules_of(diags) == ["STRUCT001"]

    def test_struct001_broadcast_read(self):
        p = prog(
            activate(0),
            MemoryInstruction(op="READ", tile=BROADCAST_TILE, row=0),
            HaltInstruction(),
        )
        diags = StructurePass().run(p, CONFIG)
        assert rules_of(diags) == ["STRUCT001"]

    def test_sensor_read_is_allowed(self):
        p = prog(
            activate(0),
            MemoryInstruction(op="READ", tile=SENSOR_TILE, row=0),
            HaltInstruction(),
        )
        assert StructurePass().run(p, CONFIG) == []

    def test_struct002_row_out_of_bank(self):
        p = prog(activate(0), preset0(511), HaltInstruction())
        diags = StructurePass().run(p, CONFIG)
        assert rules_of(diags) == ["STRUCT002"]
        assert diags[0].row == 511

    def test_struct003_no_halt(self):
        p = prog(activate(0), preset0(9), nand((0, 2), 9))
        diags = StructurePass().run(p, CONFIG)
        assert rules_of(diags) == ["STRUCT003"]

    def test_struct004_dead_code(self):
        p = prog(activate(0), HaltInstruction(), preset0(9))
        diags = StructurePass().run(p, CONFIG)
        assert rules_of(diags) == ["STRUCT004"]
        assert diags[0].severity is Severity.WARNING


class TestLinter:
    def test_full_pipeline_on_good_program(self):
        report = lint_program(GOOD, CONFIG)
        assert report.clean
        assert report.passes == tuple(p.name for p in default_passes())

    def test_diagnostics_sorted_by_index(self):
        """No ACTIVATE, mixed input parities, a self-overwriting gate
        with no preset, and no HALT: each pass reports its own rule."""
        p = prog(preset0(9), nand((0, 1), 9), nand((0, 2), 2))
        report = lint_program(p, CONFIG)
        indices = [d.index for d in report.diagnostics if d.index is not None]
        assert indices == sorted(indices)
        assert not report.ok
        assert {
            "ACT001", "PAR001", "IDEM001", "PAR002", "PRE001", "STRUCT003"
        } <= set(report.rules_fired())

    def test_lint_error_carries_report(self):
        p = prog(activate(0), nand((0, 1), 9), HaltInstruction())
        report = lint_program(p, CONFIG)
        err = LintError(report)
        assert err.report is report
        assert "PAR001" in str(err)


class TestStrictFinish:
    def test_clean_builder_program_passes_strict(self):
        b = ProgramBuilder(tile=0, rows=256, cols=8)
        b.activate((0,))
        x, y = b.word_at([0, 2]), b.word_at([4, 6])
        b.gate("NAND", x[0], y[0])
        program = b.finish(strict=True)
        assert program.halts

    def test_strict_finish_rejects_raw_appends(self):
        b = ProgramBuilder(tile=0, rows=256, cols=8)
        b.activate((0,))
        # Bypass the builder's disciplines with a raw append.
        b.program.append(nand((0, 1), 9))
        with pytest.raises(LintError) as exc_info:
            b.finish(strict=True)
        fired = exc_info.value.report.rules_fired()
        assert "PAR001" in fired
        assert "PRE001" in fired

    def test_default_finish_stays_permissive(self):
        b = ProgramBuilder(tile=0, rows=256, cols=8)
        b.activate((0,))
        b.program.append(nand((0, 1), 9))
        assert b.finish().halts  # no lint, no raise


class TestConstructionValidation:
    def test_logic_tile_out_of_range(self):
        with pytest.raises(ValueError, match="addressable range"):
            LogicInstruction(
                gate="NAND", tile=512, input_rows=(0, 2), output_row=9
            )

    def test_logic_row_out_of_range(self):
        with pytest.raises(ValueError, match="addressable range"):
            LogicInstruction(
                gate="NAND", tile=0, input_rows=(0, 1024), output_row=9
            )
        with pytest.raises(ValueError, match="addressable range"):
            LogicInstruction(
                gate="NAND", tile=0, input_rows=(0, 2), output_row=-1
            )

    def test_memory_row_out_of_range(self):
        with pytest.raises(ValueError, match="addressable range"):
            MemoryInstruction(op="PRESET0", tile=0, row=1024)

    def test_activate_column_out_of_range(self):
        with pytest.raises(ValueError, match="addressable range"):
            ActivateColumnsInstruction(tile=0, columns=(0, 1024))

    def test_maximal_addresses_construct(self):
        LogicInstruction(
            gate="NAND", tile=511, input_rows=(0, 2), output_row=1023
        )
        MemoryInstruction(op="READ", tile=511, row=1023)
        ActivateColumnsInstruction(tile=511, columns=(1023,))

    def test_overlap_left_to_the_linter(self):
        # Output-overwrites-input stays constructible: it is the
        # linter's IDEM001, not a construction error (the corpus
        # depends on being able to build it).
        instr = LogicInstruction(
            gate="NAND", tile=0, input_rows=(0, 2), output_row=2
        )
        assert instr.output_row in instr.input_rows
