"""Per-run metrics: the report type and the utilization comparison.

A run sums its measured deliveries and grants as integers, in ticks at K
ticks per microsecond, from its records once it ends;
engine.RunResult.report() divides each sum once, exactly, and takes the
float last. A run that
delivered nothing reports a NaN mean delay rather than raising, so sweep
code can emit a row per configuration without special-casing it.
"""

from dataclasses import dataclass

from .util import exact


@dataclass(frozen=True)
class MetricsReport:
    n_delivered: int
    n_lost: int
    mean_delay_ms: float
    throughput_bps: float
    aggregate_txop_s: float


def utilization_improvement(b_hcca, b_proposed):
    """Fractional reduction in TXOP time relative to the reference
    scheduler: (B_ref - B_new) / B_ref, for a reference that used some.
    The reports' floats are read as decimals, as a config's are."""
    ref = exact(b_hcca)
    new = exact(b_proposed)
    return (ref - new) / ref
