"""Per-run metrics: end-to-end delay, throughput, TXOP time, utilization.

All inputs arrive as exact Fractions of microseconds; conversions to ms
or seconds happen here, still exactly. Empty inputs yield NaN rather
than raising, so sweep code can emit a row per configuration without
special-casing runs that delivered nothing.
"""

from dataclasses import dataclass
from fractions import Fraction

from .phy import US_PER_S
from .util import exact

US_PER_MS = 1_000


@dataclass(frozen=True)
class PacketRecord:
    """One delivered MSDU."""

    aid: int
    sequence: int
    size_bytes: int
    gen_time_us: Fraction
    rx_time_us: Fraction

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if self.rx_time_us < self.gen_time_us:
            raise ValueError(
                f"rx before generation: {self.rx_time_us} < {self.gen_time_us}"
            )

    @property
    def delay_us(self) -> Fraction:
        return self.rx_time_us - self.gen_time_us


@dataclass(frozen=True)
class MetricsReport:
    n_delivered: int
    n_lost: int
    mean_delay_ms: float
    throughput_bps: float
    aggregate_txop_s: float


def e2e_delay(records):
    """Mean generation-to-delivery delay in milliseconds (NaN if empty)."""
    records = list(records)
    if not records:
        return float("nan")
    total = sum((r.delay_us for r in records), Fraction(0))
    return total / (len(records) * US_PER_MS)


def aggregate_throughput(records, duration_s):
    """Delivered payload bits per second over the given duration."""
    duration = exact(duration_s)
    if duration <= 0:
        raise ValueError("duration must be > 0")
    bits = 8 * sum(r.size_bytes for r in records)
    return Fraction(bits) / duration


def aggregate_txop(grant_durations_us):
    """Total granted TXOP time in seconds from exact microsecond durations."""
    return Fraction(sum(grant_durations_us)) / US_PER_S


def utilization_improvement(b_hcca, b_proposed):
    """Fractional reduction in TXOP time relative to the reference
    scheduler: (B_ref - B_new) / B_ref. NaN when the reference used none."""
    ref = exact(b_hcca)
    new = exact(b_proposed)
    if ref == 0:
        return float("nan")
    return (ref - new) / ref


def build_report(records, grant_durations_us, duration_s, n_lost=0) -> MetricsReport:
    records = list(records)
    return MetricsReport(
        n_delivered=len(records),
        n_lost=n_lost,
        mean_delay_ms=float(e2e_delay(records)),
        throughput_bps=float(aggregate_throughput(records, duration_s)),
        aggregate_txop_s=float(aggregate_txop(grant_durations_us)),
    )
