"""Adaptive graceful degradation under realistic harvest environments.

Under the paper's constant source a fixed checkpoint cadence is optimal
by construction — the power process never surprises the runtime.  Under
a trace (RF bursts, solar arcs, kinetic pulses) the buffer's headroom
swings, and a fixed cadence either wastes Backup energy when charged or
replays too much work when an outage lands.  This module layers a
headroom-aware policy over the engines:

* :class:`AdaptivePolicy` — the knobs: stretch the checkpoint period up
  to ``max_period``x while the capacitor is charged, snap back to the
  baseline as headroom falls through ``tighten_below``, defer host
  NVImage writes below ``defer_below``, and bound charge-window retries.
* :class:`DegradedMode` — the explicit taxonomy of what the policy gave
  up (``skipped_checkpoint`` / ``deferred_commit`` / ``fail_stop``),
  matching the engines' :data:`repro.harvest.intermittent.DEGRADED_MODES`
  tallies and the ``env.degraded`` telemetry events.
* :class:`AdaptiveCheckpointer` — wraps a
  :class:`repro.durability.Checkpointer` so *host* NVImage writes follow
  the same policy on an :class:`~repro.harvest.intermittent.IntermittentRun`.

Soundness of the ≥-fixed guarantee: a stretched cadence is only used
while headroom sits above the tighten threshold, and (in the aggregate
engine) stretched bursts are capped so they can never be the burst that
hits the shutdown bound.  Every outage therefore replays at the
baseline cadence — the adaptive run pays the same replay energy as the
fixed run and strictly less Backup energy, so at equal harvested energy
it completes at least as many instructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.harvest.capacitor import DEFAULT_CHARGE_BACKOFF, DEFAULT_CHARGE_RETRIES


class DegradedMode(str, Enum):
    """What the runtime gave up, explicitly, instead of failing
    silently.  Values match the engines' tally keys and the ``mode``
    field of ``env.degraded`` events."""

    SKIPPED_CHECKPOINT = "skipped_checkpoint"
    DEFERRED_COMMIT = "deferred_commit"
    FAIL_STOP = "fail_stop"


@dataclass(frozen=True)
class AdaptivePolicy:
    """Headroom-aware degradation knobs.

    ``max_period`` — ceiling on the stretched checkpoint period (in
    units of instructions, like the baseline period it multiplies
    from).  ``tighten_below`` — headroom fraction (of the capacitor's
    usable window) below which the cadence snaps back to the baseline.
    ``defer_below`` — headroom fraction below which a due host NVImage
    write is postponed rather than risking a mid-write outage.
    ``max_charge_retries`` / ``charge_backoff`` — bounded
    retry-with-backoff for charge windows that fall short of the
    restart threshold (see
    :meth:`repro.harvest.capacitor.EnergyBuffer.charge`).
    """

    max_period: int = 16
    tighten_below: float = 0.25
    defer_below: float = 0.10
    max_charge_retries: int = DEFAULT_CHARGE_RETRIES
    charge_backoff: float = DEFAULT_CHARGE_BACKOFF

    def __post_init__(self) -> None:
        if self.max_period < 1:
            raise ValueError("max_period must be >= 1")
        if not 0.0 < self.tighten_below < 1.0:
            raise ValueError("tighten_below must be in (0, 1)")
        if not 0.0 <= self.defer_below <= self.tighten_below:
            raise ValueError("need 0 <= defer_below <= tighten_below")
        if self.max_charge_retries < 0:
            raise ValueError("max_charge_retries cannot be negative")
        if self.charge_backoff < 1.0:
            raise ValueError("charge_backoff must be >= 1")

    def period_for(self, frac: float, base_period: int = 1) -> int:
        """The checkpoint period at headroom fraction ``frac``.

        At or below ``tighten_below`` (or for a NaN fraction) the
        baseline period is returned — the degradation never *adds*
        replay risk when energy is scarce.  Above it the period scales
        linearly up to ``max(base_period, max_period)`` at a full
        buffer.
        """
        if math.isnan(frac) or frac <= self.tighten_below:
            return base_period
        top = max(base_period, self.max_period)
        if frac >= 1.0:
            return top
        scaled = (frac - self.tighten_below) / (1.0 - self.tighten_below)
        return base_period + int((top - base_period) * scaled)


class AdaptiveCheckpointer:
    """A headroom-aware wrapper around
    :class:`repro.durability.Checkpointer` for the cycle-accurate
    engine.

    Delegates the actual NVImage commits (and their telemetry) to the
    wrapped checkpointer's store, but decides *when* adaptively:

    * while the buffer is charged, the effective period stretches up to
      ``policy.max_period`` — skipped baseline boundaries are tallied
      as ``skipped_checkpoint``;
    * when a write comes due with headroom below ``policy.defer_below``,
      it is postponed until the voltage recovers (``deferred_commit``)
      — an outage boundary or the halt boundary always flushes it, so
      durability is delayed, never lost;
    * outage-boundary and final-halt images delegate unchanged, which
      keeps resume semantics identical to the plain checkpointer's.
    """

    def __init__(self, inner, policy: AdaptivePolicy | None = None) -> None:
        self.inner = inner
        self.policy = policy or AdaptivePolicy()
        #: Degraded-mode tallies attributable to host-image cadence.
        self.deferred = 0
        self.skipped = 0
        self._pending = False

    # The resume helpers and tests reach these on a plain Checkpointer;
    # mirror them so the wrapper is a drop-in.
    @property
    def store(self):
        return self.inner.store

    @property
    def telemetry(self):
        return self.inner.telemetry

    @property
    def commits(self) -> int:
        return self.inner.commits

    @property
    def _last_count(self) -> int:
        return self.inner._last_count

    @_last_count.setter
    def _last_count(self, value: int) -> None:
        self.inner._last_count = value

    def _headroom_fraction(self, run) -> float:
        buffer = run.config.buffer
        window = buffer.window_energy
        return buffer.headroom / window if window > 0.0 else 0.0

    def _note(self, run, mode: str, count: int = 1) -> None:
        from repro.obs import active

        run.degraded[mode] += count
        obs = active(self.inner.telemetry)
        if obs is not None:
            obs.counter(f"env.degraded.{mode}").inc(count)
            obs.emit(
                "env.degraded",
                run.time,
                mode=mode,
                voltage=run.config.buffer.voltage,
                count=count,
            )

    def _write(self, run) -> None:
        from repro.durability.checkpoint import capture_intermittent

        base = self.inner.policy.period
        since = run.executed - self.inner._last_count
        skipped = since // base - 1
        if skipped > 0:
            self.skipped += skipped
            self._note(run, DegradedMode.SKIPPED_CHECKPOINT.value, skipped)
        self.inner._commit(capture_intermittent(run, phase="powered"), run.time)
        self.inner._last_count = run.executed
        self._pending = False

    # ------------------------------------------------------------------
    # Engine hooks (same surface as Checkpointer)
    # ------------------------------------------------------------------

    def on_commit(self, run) -> None:
        if run.mouse.controller.halted:
            # Final image always lands, exactly as the plain policy.
            self.inner.on_commit(run)
            self._pending = False
            return
        frac = self._headroom_fraction(run)
        if self._pending:
            if frac >= self.policy.defer_below:
                self._write(run)
            return
        base = self.inner.policy.period
        since = run.executed - self.inner._last_count
        if since < base:
            return
        if frac < self.policy.defer_below:
            # Due, but writing now risks an outage mid-NVImage commit:
            # postpone until headroom recovers (or an outage/halt
            # boundary flushes durably anyway).
            self._pending = True
            self.deferred += 1
            self._note(run, DegradedMode.DEFERRED_COMMIT.value)
            return
        if since < self.policy.period_for(frac, base):
            # Charged: stretch the cadence; the skip is tallied when
            # the stretched write finally lands.
            return
        self._write(run)

    def on_outage(self, run) -> None:
        self.inner.on_outage(run)
        if self.inner.policy.at_outages:
            # The outage image captured everything a deferred periodic
            # image would have.
            self._pending = False

    def on_profile_point(self, run) -> None:
        self.inner.on_profile_point(run)
