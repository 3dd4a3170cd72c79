"""Device-variation Monte Carlo robustness model."""

import pytest

from repro.devices.parameters import MODERN_STT, PROJECTED_SHE, PROJECTED_STT
from repro.devices.variation import (
    VariationModel,
    critical_sigma,
    gate_error_rate,
)
from repro.logic.library import AND, NAND, NOT


class TestVariationModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            VariationModel(resistance_sigma=-0.1)
        with pytest.raises(ValueError):
            VariationModel(current_sigma=-0.1)

    def test_zero_variation_means_zero_errors(self):
        for tech in (MODERN_STT, PROJECTED_STT, PROJECTED_SHE):
            for spec in (NOT, NAND, AND):
                rate = gate_error_rate(
                    tech, spec, VariationModel(0.0, 0.0), trials=20_000
                )
                assert rate.failures == 0, (tech.name, spec.name)

    def test_errors_grow_with_variation(self):
        rates = [
            gate_error_rate(
                MODERN_STT, NAND, VariationModel(s, s), trials=50_000
            ).error_rate
            for s in (0.01, 0.05, 0.15)
        ]
        assert rates == sorted(rates)
        assert rates[-1] > 0

    def test_determinism(self):
        a = gate_error_rate(MODERN_STT, NAND, VariationModel(0.05, 0.05), seed=7)
        b = gate_error_rate(MODERN_STT, NAND, VariationModel(0.05, 0.05), seed=7)
        assert a.failures == b.failures

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_at_least_one_trial(self, trials):
        """Zero trials would report a 0.0 error rate for any gate."""
        with pytest.raises(ValueError, match="trial"):
            gate_error_rate(MODERN_STT, NAND, VariationModel(), trials=trials)


class TestRobustnessOrdering:
    """The paper's qualitative claims, quantified."""

    def test_projected_beats_modern(self):
        v = VariationModel(0.05, 0.05)
        modern = gate_error_rate(MODERN_STT, NAND, v, trials=80_000).error_rate
        projected = gate_error_rate(
            PROJECTED_STT, NAND, v, trials=80_000
        ).error_rate
        assert projected < modern

    def test_she_is_most_robust(self):
        """Section II-D: decoupling the output increases robustness —
        most visible on the preset-1 (AND) gate, whose output MTJ state
        otherwise sits in the current path."""
        for spec in (NAND, AND):
            she = critical_sigma(PROJECTED_SHE, spec)
            stt = critical_sigma(PROJECTED_STT, spec)
            assert she >= stt, spec.name

    def test_tolerance_tracks_design_margin(self):
        """Gates with larger design margins tolerate more variation."""
        assert critical_sigma(MODERN_STT, NOT) > critical_sigma(MODERN_STT, AND)

    def test_error_rate_fields(self):
        rate = gate_error_rate(
            MODERN_STT, AND, VariationModel(0.05, 0.05), trials=10_000
        )
        assert rate.trials == 10_000
        assert 0 <= rate.failures <= rate.trials
        assert rate.technology == "Modern STT"
        assert rate.gate == "AND"


class TestExperiment:
    def test_run_structure(self):
        from repro.experiments import robustness

        rows = robustness.run(trials=20_000)
        assert len(rows) == 9  # 3 technologies x 3 gates
        by_key = {(r.technology, r.gate): r for r in rows}
        assert (
            by_key[("Projected SHE", "AND")].tolerated_sigma
            > by_key[("Modern STT", "AND")].tolerated_sigma
        )


class TestEdgeCases:
    """Degenerate inputs the hardening pass leans on (PR 7)."""

    def test_sigma_zero_clamp_keeps_lognormal_finite(self):
        """``sigma=0`` is clamped to 1e-12 inside the sampler — the
        log-normal draw must stay a finite no-op, never NaN/inf."""
        import numpy as np

        from repro.devices.variation import _sample_input_resistance

        states = np.zeros((4, 2), dtype=bool)
        rng = np.random.default_rng(0)
        r = _sample_input_resistance(MODERN_STT, states, 0.0, rng)
        assert np.all(np.isfinite(r))
        nominal = MODERN_STT.r_p + MODERN_STT.access_resistance
        assert r == pytest.approx(np.full((4, 2), nominal), rel=1e-9)

    def test_single_trial_monte_carlo(self):
        rate = gate_error_rate(
            MODERN_STT, NAND, VariationModel(0.05, 0.05), trials=1
        )
        assert rate.trials == 1
        assert rate.failures in (0, 1)
        assert rate.error_rate in (0.0, 1.0)

    def test_zero_trials_rate_is_zero_not_nan(self):
        from repro.devices.variation import GateErrorRate

        rate = GateErrorRate("Modern STT", "NAND", trials=0, failures=0)
        assert rate.error_rate == 0.0

    def test_gate_failure_rate_memoised(self):
        from repro.devices.variation import gate_failure_rate

        gate_failure_rate.cache_clear()
        a = gate_failure_rate(MODERN_STT, "NAND", sigma=0.1, trials=2_000)
        before = gate_failure_rate.cache_info().hits
        b = gate_failure_rate(MODERN_STT, "NAND", sigma=0.1, trials=2_000)
        assert a == b
        assert gate_failure_rate.cache_info().hits == before + 1

    def test_gate_failure_rate_deterministic_across_processes(self):
        """Hardening placement is computed independently in ``--jobs``
        workers: the memoised rate must be a pure function of its
        arguments, bit-identical in a fresh interpreter."""
        import subprocess
        import sys

        from repro.devices.variation import gate_failure_rate

        code = (
            "from repro.devices.parameters import MODERN_STT\n"
            "from repro.devices.variation import gate_failure_rate\n"
            "print(repr(gate_failure_rate("
            "MODERN_STT, 'NAND', sigma=0.08, trials=4000, seed=3)))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                cwd="/root/repo",
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        local = repr(
            gate_failure_rate(MODERN_STT, "NAND", sigma=0.08, trials=4000, seed=3)
        )
        assert runs[0] == runs[1] == local
