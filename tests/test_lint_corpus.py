"""Golden-diagnostic tests over the lint/verify violation corpus.

Each ``tests/data/lint_corpus/*.asm`` file encodes one discipline
violation; ``expected.json`` pins the exact diagnostics — rule id,
severity, instruction index, and tile/row locus — the checker must
produce for it.  A new pass that changes what fires on these programs
has to update the goldens explicitly.

Two sections: ``cases`` are structural-lint violations, ``verify`` are
semantic violations (``SEM*``/``REEX*``) the structural lint *accepts*
— each verify case carries the spec / source program / replay period
its provers run with.
"""

import json
import pathlib

import pytest

from repro.core.program import Program
from repro.isa.assembler import assemble
from repro.lint import LintConfig, Linter, Severity
from repro.verify import (
    EquivalencePass,
    ReExecutionPass,
    SemanticSpec,
    SemanticsPass,
    verify_program,
)

CORPUS = pathlib.Path(__file__).parent / "data" / "lint_corpus"
EXPECTED = json.loads((CORPUS / "expected.json").read_text())
CONFIG = LintConfig(**EXPECTED["config"])

PINNED_KEYS = ("rule", "severity", "index", "tile", "row")


def case_names():
    return sorted(EXPECTED["cases"])


def verify_case_names():
    return sorted(EXPECTED["verify"])


def _program(name):
    return Program(assemble((CORPUS / name).read_text()), name=name)


def lint_file(name):
    return Linter(CONFIG).run(_program(name), name=name)


def verify_file(name):
    case = EXPECTED["verify"][name]
    passes = []
    if "spec" in case:
        passes.append(SemanticsPass(SemanticSpec.from_json_obj(case["spec"])))
    if "against" in case:
        passes.append(EquivalencePass(_program(case["against"])))
    passes.append(ReExecutionPass(period=case["period"]))
    return verify_program(_program(name), CONFIG, passes, name=name)


class TestCorpusCoverage:
    def test_every_asm_file_has_a_golden(self):
        on_disk = sorted(p.name for p in CORPUS.glob("*.asm"))
        assert on_disk == sorted(
            set(case_names()) | set(verify_case_names())
        )

    def test_every_case_fires_something(self):
        for name in case_names():
            assert EXPECTED["cases"][name], f"{name} pins no diagnostics"

    def test_every_verify_case_fires_something(self):
        # Exception: programs that exist as the `against` source of an
        # equivalence case pin an empty list — they are the baseline.
        sources = {
            case.get("against") for case in EXPECTED["verify"].values()
        }
        for name in verify_case_names():
            if name in sources:
                continue
            assert EXPECTED["verify"][name][
                "diagnostics"
            ], f"{name} pins no diagnostics"

    def test_verify_corpus_spans_the_semantic_rules(self):
        fired = {
            d["rule"]
            for case in EXPECTED["verify"].values()
            for d in case["diagnostics"]
        }
        assert {
            "SEM001",
            "SEM002",
            "SEM003",
            "REEX001",
            "REEX002",
        } <= fired

    def test_corpus_spans_the_core_rules(self):
        fired = {
            d["rule"] for diags in EXPECTED["cases"].values() for d in diags
        }
        # The four violations the corpus exists for, by family:
        assert "PAR001" in fired  # bad parity
        assert "PRE001" in fired  # missing preset
        assert "IDEM001" in fired  # self-overwriting gate
        assert {"STRUCT001", "STRUCT002"} <= fired  # oversized addresses


@pytest.mark.parametrize("name", case_names())
def test_golden_diagnostics(name):
    report = lint_file(name)
    got = [
        {k: v for k, v in d.to_json_obj().items() if k in PINNED_KEYS}
        for d in report.diagnostics
    ]
    assert got == EXPECTED["cases"][name]


@pytest.mark.parametrize("name", case_names())
def test_exit_status_matches_severity(name):
    """`python -m repro lint --asm <file>` fails exactly when the
    pinned diagnostics contain an error."""
    from repro.__main__ import main

    has_error = any(
        d["severity"] == str(Severity.ERROR) for d in EXPECTED["cases"][name]
    )
    status = main(
        [
            "lint",
            "--asm",
            str(CORPUS / name),
            "--tiles",
            str(CONFIG.n_data_tiles),
            "--rows",
            str(CONFIG.rows),
            "--cols",
            str(CONFIG.cols),
        ]
    )
    assert status == (1 if has_error else 0)


def test_goldens_are_locus_complete():
    """Every pinned diagnostic anchors to an instruction index — the
    fix-it contract: a user can always jump to the offending line."""
    all_diags = [
        (name, d)
        for name, diags in EXPECTED["cases"].items()
        for d in diags
    ] + [
        (name, d)
        for name, case in EXPECTED["verify"].items()
        for d in case["diagnostics"]
    ]
    for name, d in all_diags:
        assert isinstance(d.get("index"), int), (name, d)


@pytest.mark.parametrize("name", verify_case_names())
def test_verify_golden_diagnostics(name):
    report = verify_file(name)
    got = [
        {k: v for k, v in d.to_json_obj().items() if k in PINNED_KEYS}
        for d in report.diagnostics
    ]
    assert got == EXPECTED["verify"][name]["diagnostics"]


@pytest.mark.parametrize(
    "name", ["reex_war_window.asm", "reex_sensor_replay.asm"]
)
def test_reexec_structural_fallback_matches_the_proof(name, monkeypatch):
    """With a one-variable truth-table budget the window proof
    overflows and the pass falls back to its structural scan, which
    gives the pinned diagnostics, each equal to the proof's."""
    case = EXPECTED["verify"][name]
    program = _program(name)
    real = ReExecutionPass._run_windows_structural
    fallbacks = []

    def spy(self, *args):
        fallbacks.append(self.max_vars)
        return real(self, *args)

    monkeypatch.setattr(ReExecutionPass, "_run_windows_structural", spy)
    proved = ReExecutionPass(period=case["period"]).run(program, CONFIG)
    assert fallbacks == []
    scanned = ReExecutionPass(period=case["period"], max_vars=1).run(
        program, CONFIG
    )
    assert fallbacks == [1]
    got = [
        {k: v for k, v in d.to_json_obj().items() if k in PINNED_KEYS}
        for d in scanned
    ]
    assert got == case["diagnostics"]
    assert [d.to_json_obj() for d in scanned] == [
        d.to_json_obj() for d in proved
    ]


@pytest.mark.parametrize("name", verify_case_names())
def test_verify_cases_are_structurally_green(name):
    """The whole point of the SEM/REEX corpus: each violation is
    invisible to the PR 3 structural lint."""
    assert lint_file(name).ok, lint_file(name).rules_fired()


@pytest.mark.parametrize("name", verify_case_names())
def test_verify_exit_status_matches_severity(name, tmp_path):
    """`python -m repro verify --asm <file>` fails exactly when the
    pinned diagnostics contain an error."""
    from repro.__main__ import main

    case = EXPECTED["verify"][name]
    argv = [
        "verify",
        "--asm",
        str(CORPUS / name),
        "--tiles",
        str(CONFIG.n_data_tiles),
        "--rows",
        str(CONFIG.rows),
        "--cols",
        str(CONFIG.cols),
        "--period",
        str(case["period"]),
    ]
    if "spec" in case:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(case["spec"]))
        argv += ["--spec", str(spec_path)]
    if "against" in case:
        argv += ["--against", str(CORPUS / case["against"])]
    has_error = any(
        d["severity"] == str(Severity.ERROR) for d in case["diagnostics"]
    )
    assert main(argv) == (1 if has_error else 0)
