"""CRAM threshold-logic gates built from MTJ resistor networks.

A MOUSE logic operation connects the MTJs of 2-3 input rows in parallel,
in series with the output row's cell, across the bitlines (Figures 1 and
3).  The applied voltage and the output's preset value select the gate:
the output switches — in one direction only — iff the input network's
resistance is low enough, i.e. iff *at most k* inputs hold logic 1.
Every gate in the library is therefore a monotone threshold function
plus a fixed preset, which is exactly why each gate is idempotent.
"""

from repro.logic.gates import GateSpec, design_voltage, gate_energy, gate_margin
from repro.logic.library import GATE_LIBRARY, gate_by_name
from repro.logic.resistance import (
    input_network_resistance,
    total_path_resistance,
)

__all__ = [
    "GateSpec",
    "design_voltage",
    "gate_energy",
    "gate_margin",
    "GATE_LIBRARY",
    "gate_by_name",
    "input_network_resistance",
    "total_path_resistance",
]
