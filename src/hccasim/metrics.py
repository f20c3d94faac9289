"""Per-run metrics: end-to-end delay, throughput, TXOP time, utilization.

A run's deliveries and grants arrive in integer ticks at K ticks per
microsecond. They are summed as integers and each metric divides its sum
once, exactly; the float is taken last. Empty inputs yield NaN rather
than raising, so sweep code can emit a row per configuration without
special-casing runs that delivered nothing.
"""

from dataclasses import dataclass
from fractions import Fraction

from .phy import US_PER_S
from .util import exact

US_PER_MS = 1_000


@dataclass(frozen=True)
class MetricsReport:
    n_delivered: int
    n_lost: int
    mean_delay_ms: float
    throughput_bps: float
    aggregate_txop_s: float


def delivery_sums(deliveries, warmup_tick=0):
    """Count, total delay ticks and total payload bytes of the deliveries
    (aid, sequence, size, gen_tick, rx_tick) generated at or after warmup_tick."""
    n = delay = payload = 0
    for _aid, _seq, size, gen, rx in deliveries:
        if gen >= warmup_tick:
            if rx < gen:
                raise ValueError(f"rx before generation: tick {rx} < {gen}")
            n += 1
            delay += rx - gen
            payload += size
    return n, delay, payload


def e2e_delay(delay_ticks, n, ticks_per_us):
    """Mean generation-to-delivery delay in milliseconds over n deliveries
    (NaN if none)."""
    if not n:
        return float("nan")
    return Fraction(delay_ticks, n * ticks_per_us * US_PER_MS)


def aggregate_throughput(payload_bytes, duration_s):
    """Delivered payload bits per second over the given duration."""
    duration = exact(duration_s)
    if duration <= 0:
        raise ValueError("duration must be > 0")
    return 8 * payload_bytes / duration


def aggregate_txop(grant_ticks, ticks_per_us):
    """Total granted TXOP time in seconds."""
    return Fraction(grant_ticks, ticks_per_us * US_PER_S)


def utilization_improvement(b_hcca, b_proposed):
    """Fractional reduction in TXOP time relative to the reference
    scheduler: (B_ref - B_new) / B_ref. NaN when the reference used none."""
    ref = exact(b_hcca)
    new = exact(b_proposed)
    if ref == 0:
        return float("nan")
    return (ref - new) / ref


def build_report(n_delivered, delay_ticks, payload_bytes, grant_ticks, ticks_per_us,
                 duration_s, n_lost=0) -> MetricsReport:
    return MetricsReport(
        n_delivered=n_delivered,
        n_lost=n_lost,
        mean_delay_ms=float(e2e_delay(delay_ticks, n_delivered, ticks_per_us)),
        throughput_bps=float(aggregate_throughput(payload_bytes, duration_s)),
        aggregate_txop_s=float(aggregate_txop(grant_ticks, ticks_per_us)),
    )
