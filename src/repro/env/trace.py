"""Replayable harvest-power traces (``repro.env.trace/v1``).

The paper sweeps a *constant* power source and notes the model
"captures a representative operation" even though real harvesters
fluctuate.  A :class:`HarvestTrace` is the fluctuating case made
reproducible: a piecewise-constant power timeline — sample ``i`` holds
``watts[i]`` over ``[times[i], times[i+1])`` — with a deterministic
generator family behind every synthetic trace and a JSONL file format
(one header line, one line per sample) written through
:mod:`repro.durability.atomic` so a half-written trace never exists on
disk.

:class:`TraceSource` adapts a trace to the
:class:`~repro.harvest.source.PowerSource` protocol, so it slots in
wherever :class:`~repro.harvest.source.ConstantPowerSource` is used
today — the intermittent engines, the fault campaigns, the crash
harness, the experiment sweeps.  A single-sample trace takes a
*constant fast path* that evaluates the exact float expressions
``ConstantPowerSource`` evaluates (``watts * duration`` and
``energy / watts``), so a ``constant(w)`` trace reproduces the
constant-source :class:`~repro.energy.metrics.Breakdown` byte for
byte; ``tests/test_env_replay.py`` and the property tests assert it.

Tail semantics make outages *emergent*: with ``extend="hold"`` the
last sample's level persists forever (a zero tail means the harvester
died — charging waits become infinite and the engines raise
:class:`~repro.harvest.capacitor.ChargeWindowFailure`); with
``extend="loop"`` the trace repeats with period ``period`` (the
solar-diurnal day/night cycle).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

import numpy as np

TRACE_SCHEMA = "repro.env.trace/v1"

#: Tail policies: ``hold`` keeps the last sample's power forever,
#: ``loop`` repeats the trace every ``period`` seconds.
EXTENDS = ("hold", "loop")


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r:.60}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of float range") from None


def _json_line(path, number: int, line: str):
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the JSON decoder allows.
        raise ValueError(f"{path}: line {number}: {exc}") from None


def _check_schema(obj: Mapping, where: str) -> None:
    if obj.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{where}: schema is {obj.get('schema')!r:.60}, expected "
            f"{TRACE_SCHEMA!r}"
        )


@dataclass(frozen=True)
class HarvestTrace:
    """A piecewise-constant power timeline.

    ``times`` are strictly increasing sample timestamps in seconds,
    starting at 0.0; ``watts[i]`` is the harvested power held over
    ``[times[i], times[i+1])``.  The tail behaviour past the last
    sample is ``extend`` (see :data:`EXTENDS`); a looping trace needs
    ``period > times[-1]``.  ``family`` names the generator that
    produced the trace (``constant`` / ``rf_burst`` / ``solar`` /
    ``kinetic`` / ``custom``) and ``meta`` records its parameters.
    """

    name: str
    times: tuple[float, ...]
    watts: tuple[float, ...]
    family: str = "custom"
    extend: str = "hold"
    period: float = 0.0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        watts = tuple(float(w) for w in self.watts)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "watts", watts)
        if not self.name:
            raise ValueError("trace needs a name")
        if len(times) == 0:
            raise ValueError("trace needs at least one sample")
        if len(times) != len(watts):
            raise ValueError("times and watts must have equal length")
        if times[0] != 0.0:
            raise ValueError("trace must start at time 0.0")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError("sample times must be strictly increasing")
        for value in times + watts + (self.period,):
            if not math.isfinite(value):
                raise ValueError("trace values must be finite")
        for w in watts:
            if w < 0:
                raise ValueError("harvested power cannot be negative")
        if self.extend not in EXTENDS:
            raise ValueError(f"extend must be one of {EXTENDS}")
        if self.extend == "loop" and not self.period > times[-1]:
            raise ValueError("a looping trace needs period > times[-1]")

    # -- derived ----------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def span(self) -> float:
        """Seconds covered by explicit samples (the loop period for a
        looping trace)."""
        return self.period if self.extend == "loop" else self.times[-1]

    @property
    def is_constant(self) -> bool:
        """True when the trace is a single level held forever — the
        case :class:`TraceSource` reproduces byte-identically to
        :class:`~repro.harvest.source.ConstantPowerSource`."""
        return len(self.watts) == 1

    @property
    def peak_watts(self) -> float:
        return max(self.watts)

    def mean_watts(self) -> float:
        """Time-weighted mean power over one span (the held tail level
        for a single-sample trace)."""
        if len(self.watts) == 1:
            return self.watts[0]
        end = self.period if self.extend == "loop" else self.times[-1]
        total = 0.0
        for i, w in enumerate(self.watts):
            t1 = self.times[i + 1] if i + 1 < len(self.times) else end
            total += w * (t1 - self.times[i])
        return total / end if end > 0 else self.watts[0]

    # -- serialisation ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "family": self.family,
            "extend": self.extend,
            "period": self.period,
            "meta": dict(self.meta),
            "times": list(self.times),
            "watts": list(self.watts),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "HarvestTrace":
        """Inverse of :meth:`to_json_obj`; ``ValueError`` names the
        field that is missing or malformed."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"trace must be a JSON object, got {obj!r:.60}")
        _check_schema(obj, "trace")
        columns = []
        for column in ("times", "watts"):
            values = obj.get(column)
            if not isinstance(values, (list, tuple)):
                raise ValueError(
                    f"trace: field {column!r} must be a list, got {values!r:.60}"
                )
            columns.append(
                [_number(v, f"trace: {column}[{i}]") for i, v in enumerate(values)]
            )
        return cls._from_fields(obj, columns[0], columns[1], "trace")

    @classmethod
    def _from_fields(cls, fields: Mapping, times, watts, where) -> "HarvestTrace":
        """The trace a header (or JSON object) and its sample columns
        describe; ``ValueError`` names a missing or mistyped field."""
        if "name" not in fields:
            raise ValueError(f"{where}: missing field 'name'")
        strings = {
            "name": fields["name"],
            "family": fields.get("family", "custom"),
            "extend": fields.get("extend", "hold"),
        }
        for key, value in strings.items():
            if not isinstance(value, str):
                raise ValueError(
                    f"{where}: field {key!r} must be a string, got {value!r:.60}"
                )
        meta = fields.get("meta", {})
        if not isinstance(meta, Mapping):
            raise ValueError(
                f"{where}: field 'meta' must be an object, got {meta!r:.60}"
            )
        return cls(
            times=tuple(times),
            watts=tuple(watts),
            period=_number(fields.get("period", 0.0), f"{where}: field 'period'"),
            meta=dict(meta),
            **strings,
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSONL: a header line (schema, name,
        family, extend, period, meta, sample count) followed by one
        ``[time, watts]`` line per sample, atomically."""
        from repro.durability.atomic import atomic_write_text

        header = {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "family": self.family,
            "extend": self.extend,
            "period": self.period,
            "meta": dict(self.meta),
            "samples": len(self.times),
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps([t, w]) for t, w in zip(self.times, self.watts)
        )
        atomic_write_text(Path(path), "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "HarvestTrace":
        """Read a JSONL trace written by :meth:`save`; ``ValueError``
        names the line or header field that is malformed."""
        text = Path(path).read_text(encoding="utf-8")
        lines = [
            (number, line)
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        if not lines:
            raise ValueError(f"{path}: empty trace file")
        number, line = lines[0]
        header = _json_line(path, number, line)
        if not isinstance(header, dict):
            raise ValueError(
                f"{path}: line {number}: the header must be a JSON object"
            )
        _check_schema(header, str(path))
        times, watts = [], []
        for number, line in lines[1:]:
            sample = _json_line(path, number, line)
            if not isinstance(sample, list) or len(sample) != 2:
                raise ValueError(
                    f"{path}: line {number}: a sample is a [time, watts] "
                    f"pair, got {sample!r:.60}"
                )
            times.append(_number(sample[0], f"{path}: line {number}: time"))
            watts.append(_number(sample[1], f"{path}: line {number}: watts"))
        declared = header.get("samples", len(times))
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise ValueError(
                f"{path}: field 'samples' must be an integer, got {declared!r:.60}"
            )
        if declared != len(times):
            raise ValueError(
                f"{path}: header declares {declared} samples, file holds "
                f"{len(times)}"
            )
        return cls._from_fields(header, times, watts, str(path))

    def describe(self) -> dict:
        """Summary statistics for the CLI's ``env describe``."""
        mean = self.mean_watts()
        active = sum(
            1 for w in self.watts if w > 0.5 * self.peak_watts
        )
        return {
            "name": self.name,
            "family": self.family,
            "extend": self.extend,
            "samples": self.n_samples,
            "span_s": self.span,
            "period_s": self.period if self.extend == "loop" else None,
            "mean_watts": mean,
            "peak_watts": self.peak_watts,
            "min_watts": min(self.watts),
            "duty_cycle": active / self.n_samples,
            "constant": self.is_constant,
        }


# ----------------------------------------------------------------------
# Deterministic synthetic generators
# ----------------------------------------------------------------------


def constant(watts: float, name: Optional[str] = None) -> HarvestTrace:
    """A single level held forever — the paper's harvester model as a
    trace.  :class:`TraceSource` replays it byte-identically to
    :class:`~repro.harvest.source.ConstantPowerSource(watts)`."""
    if watts <= 0:
        raise ValueError("power must be positive")
    return HarvestTrace(
        name=name or f"constant-{watts:g}W",
        times=(0.0,),
        watts=(float(watts),),
        family="constant",
        meta={"watts": float(watts)},
    )


def rf_burst(
    seed: int = 0,
    *,
    burst_watts: float = 5e-3,
    idle_watts: float = 60e-6,
    burst_duration: float = 2e-3,
    burst_period: float = 10e-3,
    jitter: float = 0.25,
    n_bursts: int = 16,
    name: Optional[str] = None,
) -> HarvestTrace:
    """RF energy bursts over a weak ambient floor (SONIC-style reader
    passes): ``n_bursts`` bursts of ``burst_watts``, nominally every
    ``burst_period`` seconds with seeded start jitter, ``idle_watts``
    between and after (held forever — the reader keeps polling)."""
    if burst_watts <= 0 or idle_watts < 0:
        raise ValueError("burst power must be positive, idle non-negative")
    if not 0 <= jitter < 1:
        raise ValueError("jitter must be in [0, 1)")
    if burst_duration <= 0 or burst_duration >= burst_period:
        raise ValueError("need 0 < burst_duration < burst_period")
    if n_bursts < 1:
        raise ValueError("need at least one burst")
    rng = np.random.default_rng(seed)
    slack = burst_period - burst_duration
    times = [0.0]
    watts = [float(idle_watts)]
    for k in range(n_bursts):
        offset = float(rng.uniform(0.0, jitter * slack))
        start = k * burst_period + offset
        if start <= times[-1]:
            start = times[-1] + 0.25 * burst_duration
        times.append(start)
        watts.append(float(burst_watts))
        times.append(start + burst_duration)
        watts.append(float(idle_watts))
    return HarvestTrace(
        name=name or f"rf-burst-s{seed}",
        times=tuple(times),
        watts=tuple(watts),
        family="rf_burst",
        extend="hold",
        meta={
            "seed": seed,
            "burst_watts": burst_watts,
            "idle_watts": idle_watts,
            "burst_duration": burst_duration,
            "burst_period": burst_period,
            "jitter": jitter,
            "n_bursts": n_bursts,
        },
    )


def solar_diurnal(
    seed: int = 0,
    *,
    peak_watts: float = 5e-3,
    floor_watts: float = 0.0,
    day_length: float = 0.1,
    day_fraction: float = 0.5,
    samples_per_day: int = 48,
    n_days: int = 1,
    cloud_depth: float = 0.2,
    name: Optional[str] = None,
) -> HarvestTrace:
    """A day/night cycle, looped: a half-sine irradiance arc over the
    first ``day_fraction`` of each ``day_length``-second day (scaled by
    seeded per-sample cloud attenuation), ``floor_watts`` at night.
    ``day_length`` defaults to 0.1 s because the simulated workloads
    run in milliseconds — the *shape* matters, not the wall clock.
    With ``floor_watts=0`` every night is an emergent outage."""
    if peak_watts <= 0 or floor_watts < 0:
        raise ValueError("peak power must be positive, floor non-negative")
    if not 0 < day_fraction < 1:
        raise ValueError("day_fraction must be in (0, 1)")
    if not 0 <= cloud_depth < 1:
        raise ValueError("cloud_depth must be in [0, 1)")
    if samples_per_day < 4 or n_days < 1 or day_length <= 0:
        raise ValueError("need samples_per_day >= 4, n_days >= 1, day_length > 0")
    rng = np.random.default_rng(seed)
    times = []
    watts = []
    for day in range(n_days):
        for i in range(samples_per_day):
            u = i / samples_per_day
            if u < day_fraction:
                arc = math.sin(math.pi * u / day_fraction)
                attenuation = 1.0 - cloud_depth * float(rng.random())
                level = floor_watts + (peak_watts - floor_watts) * arc * attenuation
            else:
                level = floor_watts
            times.append((day + u) * day_length)
            watts.append(float(level))
    return HarvestTrace(
        name=name or f"solar-s{seed}",
        times=tuple(times),
        watts=tuple(watts),
        family="solar",
        extend="loop",
        period=n_days * day_length,
        meta={
            "seed": seed,
            "peak_watts": peak_watts,
            "floor_watts": floor_watts,
            "day_length": day_length,
            "day_fraction": day_fraction,
            "samples_per_day": samples_per_day,
            "n_days": n_days,
            "cloud_depth": cloud_depth,
        },
    )


def kinetic(
    seed: int = 0,
    *,
    mean_watts: float = 1e-3,
    step_period: float = 5e-3,
    duty: float = 0.3,
    n_steps: int = 32,
    spread: float = 0.5,
    name: Optional[str] = None,
) -> HarvestTrace:
    """Motion/kinetic harvesting (footsteps, vibration): one power
    pulse per ``step_period`` lasting ``duty`` of it, with seeded
    log-normal amplitude around ``mean_watts``; zero between pulses
    and after the last one (the wearer stops moving — the tail is an
    exhausted harvester, so charge windows past it fail-stop)."""
    if mean_watts <= 0:
        raise ValueError("mean power must be positive")
    if not 0 < duty < 1:
        raise ValueError("duty must be in (0, 1)")
    if n_steps < 1 or step_period <= 0 or spread < 0:
        raise ValueError("need n_steps >= 1, step_period > 0, spread >= 0")
    rng = np.random.default_rng(seed)
    times = [0.0]
    watts = [0.0]
    for k in range(n_steps):
        start = k * step_period
        amplitude = mean_watts * math.exp(
            spread * float(rng.standard_normal()) - 0.5 * spread * spread
        )
        if start > times[-1]:
            times.append(start)
            watts.append(float(amplitude))
        else:  # first pulse starts at 0
            watts[-1] = float(amplitude)
        times.append(start + duty * step_period)
        watts.append(0.0)
    return HarvestTrace(
        name=name or f"kinetic-s{seed}",
        times=tuple(times),
        watts=tuple(watts),
        family="kinetic",
        extend="hold",
        meta={
            "seed": seed,
            "mean_watts": mean_watts,
            "step_period": step_period,
            "duty": duty,
            "n_steps": n_steps,
            "spread": spread,
        },
    )


#: Generator registry for the CLI and the experiment sweep.  Every
#: entry is deterministic in its arguments (seeded RNG, no clocks).
FAMILIES: dict[str, Callable[..., HarvestTrace]] = {
    "constant": constant,
    "rf_burst": rf_burst,
    "solar": solar_diurnal,
    "kinetic": kinetic,
}


# ----------------------------------------------------------------------
# PowerSource adapter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TracePosition:
    """Where in a trace a moment in simulated time falls — included in
    stall/fail-stop diagnoses so a trace-driven hang is debuggable from
    the exception alone."""

    index: int  #: sample index (within one period for looping traces)
    elapsed: float  #: absolute simulated time, seconds
    wraps: int = 0  #: completed loop periods before ``elapsed``

    def __str__(self) -> str:
        wrap = f", wrap {self.wraps}" if self.wraps else ""
        return f"trace sample {self.index} at t={self.elapsed:.6g}s{wrap}"


class TraceSource:
    """A :class:`~repro.harvest.source.PowerSource` driven by a trace.

    Piecewise-constant integration gives closed forms for ``energy``
    and ``time_to_harvest`` (prefix sums + bisection, O(log n) per
    query).  A single-sample trace short-circuits to the *identical*
    float expressions ``ConstantPowerSource`` uses, so constant traces
    are byte-exact stand-ins; ``constant_watts`` exposes that level
    (``None`` otherwise) for ``ProfileRun``'s constant-source path.
    """

    def __init__(self, trace: HarvestTrace) -> None:
        self.trace = trace
        self._times = trace.times
        self._watts = trace.watts
        #: Constant fast path: ConstantPowerSource's exact arithmetic.
        self.constant_watts: Optional[float] = (
            trace.watts[0] if trace.is_constant else None
        )
        if self.constant_watts is not None and self.constant_watts <= 0:
            raise ValueError(
                "a constant trace needs positive power (a zero level "
                "never charges the buffer)"
            )
        cum = [0.0]
        for i in range(len(trace.times) - 1):
            cum.append(
                cum[-1]
                + trace.watts[i] * (trace.times[i + 1] - trace.times[i])
            )
        self._cum = cum
        if trace.extend == "loop":
            self._period_energy = cum[-1] + trace.watts[-1] * (
                trace.period - trace.times[-1]
            )
        else:
            self._period_energy = 0.0

    def __repr__(self) -> str:
        return f"TraceSource({self.trace.name!r})"

    @property
    def watts(self) -> float:
        """The constant level; AttributeError for a fluctuating trace,
        so duck-typed constant-only consumers fail loudly instead of
        silently flattening the trace."""
        if self.constant_watts is None:
            raise AttributeError(
                f"trace {self.trace.name!r} is not constant"
            )
        return self.constant_watts

    # -- position ---------------------------------------------------------

    def _index_at(self, time: float) -> int:
        if time <= 0.0:
            return 0
        return bisect_right(self._times, time) - 1

    def position(self, time: float) -> TracePosition:
        """The trace sample simulated time ``time`` falls in."""
        wraps = 0
        local = time
        if self.trace.extend == "loop" and time > 0.0:
            wraps = int(time // self.trace.period)
            local = time - wraps * self.trace.period
        return TracePosition(
            index=self._index_at(local), elapsed=time, wraps=wraps
        )

    # -- PowerSource protocol ----------------------------------------------

    def power(self, time: float) -> float:
        if self.constant_watts is not None:
            return self.constant_watts
        local = time
        if self.trace.extend == "loop" and time > 0.0:
            local = time - int(time // self.trace.period) * self.trace.period
        return self._watts[self._index_at(local)]

    def _integral(self, time: float) -> float:
        """Energy harvested over [0, time] (time >= 0)."""
        if time <= 0.0:
            return 0.0
        if math.isinf(time):
            tail = (
                self._period_energy
                if self.trace.extend == "loop"
                else self._watts[-1]
            )
            return math.inf if tail > 0.0 else self._cum[-1]
        times, watts, cum = self._times, self._watts, self._cum
        if self.trace.extend == "loop":
            period = self.trace.period
            wraps = int(time // period)
            local = time - wraps * period
            i = bisect_right(times, local) - 1 if local > 0.0 else 0
            return wraps * self._period_energy + (
                cum[i] + watts[i] * (local - times[i])
            )
        i = bisect_right(times, time) - 1
        return cum[i] + watts[i] * (time - times[i])

    def energy(self, start: float, duration: float) -> float:
        if self.constant_watts is not None:
            if duration < 0:
                raise ValueError("duration must be non-negative")
            return self.constant_watts * duration
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if start < 0:
            raise ValueError("start must be non-negative")
        out = self._integral(start + duration) - self._integral(start)
        return out if out > 0.0 else 0.0

    def time_to_harvest(self, energy: float, start: float = 0.0) -> float:
        """Seconds until ``energy`` joules accumulate from ``start``;
        ``math.inf`` when the trace can never supply it (dead tail) —
        the engines turn that into an explicit
        :class:`~repro.harvest.capacitor.ChargeWindowFailure`
        instead of hanging."""
        if self.constant_watts is not None:
            if energy <= 0:
                return 0.0
            return energy / self.constant_watts
        if energy <= 0:
            return 0.0
        target = self._integral(start) + energy
        reached = self._invert(target)
        if math.isinf(reached):
            return math.inf
        wait = reached - start
        return wait if wait > 0.0 else 0.0

    def stepper(self, start: float):
        """``(energy, energy_ahead, time_to_harvest)`` as closures for a
        caller that walks simulated time forward from ``start``.

        Each returns exactly what the method of the same name returns,
        but ``energy(t, d)`` assumes the caller then advances ``t`` by
        ``d``: it carries ``integral(t + d)`` over as the next call's
        ``integral(t)``, so a step evaluates the integral once instead
        of twice.  ``energy_ahead(t, d)`` is the same harvest without
        the advance, and ``time_to_harvest(e, t)`` inverts from the
        carried integral.  Every call must pass the walk's current
        time, and ``start`` must be non-negative.
        """
        integral, invert = self._integral, self._invert
        carried = integral(start)

        def energy(start: float, duration: float) -> float:
            nonlocal carried
            end = integral(start + duration)
            out = end - carried
            carried = end
            return out if out > 0.0 else 0.0

        def energy_ahead(start: float, duration: float) -> float:
            out = integral(start + duration) - carried
            return out if out > 0.0 else 0.0

        def time_to_harvest(energy: float, start: float) -> float:
            if energy <= 0:
                return 0.0
            reached = invert(carried + energy)
            if math.isinf(reached):
                return math.inf
            wait = reached - start
            return wait if wait > 0.0 else 0.0

        return energy, energy_ahead, time_to_harvest

    def _invert(self, target: float) -> float:
        """Smallest absolute time T with integral(T) >= target."""
        if target <= 0.0:
            return 0.0
        base = 0.0
        looping = self.trace.extend == "loop"
        if looping:
            pe = self._period_energy
            if target > pe:
                if pe <= 0.0:
                    return math.inf
                wraps = int((target - 1e-300) // pe)
                # Float guard: land in the period actually containing
                # the target.
                while wraps * pe >= target and wraps > 0:
                    wraps -= 1
                base = wraps * self.trace.period
                target -= wraps * pe
        # The segment covering `target` ends at the first prefix sum at
        # or above it; the sums never decrease, so one bisect finds it.
        times, watts, cum = self._times, self._watts, self._cum
        j = bisect_left(cum, target, 1)
        if j < len(times):
            rate = watts[j - 1]
            if rate <= 0.0:
                # target == cum[j] with a zero segment: the energy
                # completes exactly at the segment's end.
                return base + times[j]
            return base + times[j - 1] + (target - cum[j - 1]) / rate
        # Tail segment.
        rate = watts[-1]
        if looping:
            if rate <= 0.0:
                return base + self.trace.period
            return base + times[-1] + (target - cum[-1]) / rate
        if rate <= 0.0:
            return math.inf
        return base + times[-1] + (target - cum[-1]) / rate
