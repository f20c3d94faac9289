"""Deterministic discrete-event simulator of polled-TXOP WLAN uplink scheduling.

Compares a reference fixed-grant polling scheduler against two adaptive
variants (per-station piggyback sizing, and a shared multi-poll frame) over
trace-driven variable-bit-rate video, and evaluates a closed-form delay
model against the simulation.
"""

__version__ = "0.1.0"
