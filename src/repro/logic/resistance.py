"""Resistor-network arithmetic for in-array logic operations.

The current path of a logic operation (Figure 3) is: one bitline ->
the input cells in parallel -> the logic line -> the output cell ->
the other bitline.  These helpers compute the network resistance for a
given number of logic-1 inputs; they are shared by the analytic gate
design, the scalar device simulator, and the vectorised tile simulator
so there is a single source of truth for the electrical model.
"""

from __future__ import annotations

from repro.devices.cell import input_resistance, output_resistance
from repro.devices.parameters import DeviceParameters


def input_network_resistance(
    params: DeviceParameters, n_inputs: int, n_ones: int
) -> float:
    """Resistance of ``n_inputs`` parallel input cells, ``n_ones`` of
    which hold logic 1 (AP, high resistance)."""
    if not 0 <= n_ones <= n_inputs:
        raise ValueError(f"n_ones={n_ones} out of range for {n_inputs} inputs")
    r0 = input_resistance(params, False)
    r1 = input_resistance(params, True)
    return 1.0 / (n_ones / r1 + (n_inputs - n_ones) / r0)


def total_path_resistance(
    params: DeviceParameters, n_inputs: int, n_ones: int, preset: bool
) -> float:
    """Full operation path: input network in series with the output cell
    (whose contribution depends on its preset for STT, but not SHE)."""
    return input_network_resistance(params, n_inputs, n_ones) + output_resistance(
        params, preset
    )
