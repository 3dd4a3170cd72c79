"""The ``SDC*`` lint pass: static silent-data-corruption accounting.

The pass is the lint-side contract check for :mod:`repro.harden`:

* **SDC004** (error) — the ``repro.harden/v1`` metadata must describe
  the instruction stream it is attached to: every verify mark and every
  TMR-group pc must name a logic instruction, and a group's voter must
  actually write the row the group claims to protect.  The fault layer
  executes this metadata by pc; stale metadata silently disables the
  protection it promises.
* **SDC002** (warning) — a TMR group whose voter instructions are not
  verify-marked leaves the voter's own output row unprotected (the
  classic TMR hole :func:`repro.compile.macros.tmr_bit` documents).
* **SDC003** (warning) — verify marks on instructions the criticality
  analysis proves masked (dead output, redefined before HALT) are pure
  energy overhead.
* **SDC001** (error) — with a flip-rate table and an ``sdc_target`` in
  the :class:`~repro.lint.config.LintConfig`, the proven bound from
  :func:`repro.harden.bound.sdc_bound` must not exceed the target.
  The bound is a *sound upper bound* on the measured campaign SDC rate
  (``tests/test_harden_frontier.py`` asserts the dominance
  empirically), so an
  SDC001-clean program is statically certified, not just tested.

Programs without hardening metadata and configs without flip rates are
skipped outright — the pass adds zero cost to every pre-existing lint
path.
"""

from __future__ import annotations

from repro.core.program import Program
from repro.isa.instruction import LogicInstruction
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.passes import LintPass, _diag


class SdcPass(LintPass):
    """Check hardening metadata and the proven SDC bound."""

    name = "sdc"

    def run(self, program: Program, config: LintConfig) -> list[Diagnostic]:
        meta = program.harden_meta
        rates = config.flip_rate_map()
        if meta is None and rates is None:
            return []
        if rates is None:
            rates = {
                str(k): float(v)
                for k, v in (meta.get("flip_rates") or {}).items()
            }

        out: list[Diagnostic] = []
        out.extend(self._check_meta(program, meta))
        if any(d.severity.name == "ERROR" for d in out):
            # Bound math over broken metadata would double-count or
            # miss pcs; report the inconsistency alone.
            return out

        # Imported lazily: repro.harden depends on repro.lint, and the
        # fast path above keeps the cycle (and the import cost) off
        # every lint run that has no hardening in play.
        from repro.harden.bound import sdc_bound
        from repro.harden.criticality import analyse

        report = analyse(program, rates, config)
        by_pc = report.by_pc()
        for pc in sorted(program.verify_pcs):
            record = by_pc.get(pc)
            if record is not None and record.masked:
                out.append(
                    _diag(
                        "SDC003",
                        f"verify mark on masked gate {record.gate} at pc "
                        f"{pc}: its output (t{record.tile} row "
                        f"{record.output_row}) is dead and redefined "
                        "before HALT",
                        index=pc,
                        tile=record.tile,
                        row=record.output_row,
                        hint="drop the mark; masking already absorbs "
                        "every flip here",
                    )
                )
        for group in (meta or {}).get("tmr_groups", ()):
            voter_pcs = [int(pc) for pc in group.get("voter_pcs", ())]
            unmarked = [
                pc for pc in voter_pcs if pc not in program.verify_pcs
            ]
            if unmarked:
                out.append(
                    _diag(
                        "SDC002",
                        f"TMR group for t{group.get('tile')} row "
                        f"{group.get('output_row')} has unverified voter "
                        f"pc(s) {unmarked}: a flip on the voter's own "
                        "output row is silent",
                        index=unmarked[0],
                        tile=group.get("tile"),
                        row=group.get("output_row"),
                        hint="harden with voter_verify=True (or "
                        "tmr_bit(..., verify=True))",
                    )
                )

        bound = sdc_bound(program, rates, config, report=report)
        if config.sdc_target is not None and bound.total > config.sdc_target:
            worst = ", ".join(
                f"pc {pc} ({p:.2e})" for pc, p in bound.worst[:3]
            )
            out.append(
                _diag(
                    "SDC001",
                    f"proven SDC bound {bound.total:.4e} exceeds the "
                    f"target {config.sdc_target:.4e} "
                    f"(unprotected {bound.unprotected:.4e}, voter "
                    f"{bound.voter:.4e}, TMR residual "
                    f"{bound.tmr_residual:.4e})",
                    index=bound.worst[0][0] if bound.worst else None,
                    hint="protect the dominant contributors"
                    + (f": {worst}" if worst else ""),
                )
            )
        return out

    # ------------------------------------------------------------------

    @staticmethod
    def _check_meta(program: Program, meta) -> list[Diagnostic]:
        """SDC004: the metadata must describe *this* program."""
        if meta is None:
            return []
        out: list[Diagnostic] = []

        def bad(message: str, index=None, hint: str = "") -> None:
            out.append(_diag("SDC004", message, index=index, hint=hint))

        schema = meta.get("schema")
        if schema != "repro.harden/v1":
            bad(
                f"unknown hardening schema {schema!r}",
                hint="expected 'repro.harden/v1'",
            )
            return out

        def is_logic(pc) -> bool:
            return (
                isinstance(pc, int)
                and 0 <= pc < len(program)
                and isinstance(program[pc], LogicInstruction)
            )

        for pc in meta.get("verify_pcs", ()):
            if not is_logic(pc):
                bad(
                    f"verify mark at pc {pc!r} does not name a logic "
                    "instruction",
                    index=pc if isinstance(pc, int) else None,
                    hint="re-run the hardening pass after any rewrite "
                    "that moves instructions",
                )
        for group in meta.get("tmr_groups", ()):
            pcs = list(group.get("copy_pcs", ())) + list(
                group.get("voter_pcs", ())
            )
            for pc in pcs:
                if not is_logic(pc):
                    bad(
                        f"TMR group for row {group.get('output_row')!r} "
                        f"references pc {pc!r}, which is not a logic "
                        "instruction",
                        index=pc if isinstance(pc, int) else None,
                    )
            voter_pcs = group.get("voter_pcs", ())
            if voter_pcs and is_logic(voter_pcs[-1]):
                final = program[int(voter_pcs[-1])]
                if final.output_row != group.get("output_row"):
                    bad(
                        f"TMR voter at pc {voter_pcs[-1]} writes row "
                        f"{final.output_row}, not the protected row "
                        f"{group.get('output_row')!r}",
                        index=int(voter_pcs[-1]),
                    )
        return out
