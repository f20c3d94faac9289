"""Polled-TXOP schedulers: their names, and the reference scheduler's
service interval, grants and admission.

The reference scheduler sizes every grant from the TSPEC means, so grants
are constant for a fixed admitted set. Admission charges these reference
grants: the engine sizes every traffic contract's grant at the candidate
SI and asks `admissible` whether the admitted streams' sum fits the
contention-free share of the beacon interval. All arithmetic is exact;
durations are Fractions of microseconds and intervals Fractions of
seconds. The arguments arrive exact and checked: the scenario and the
traffic contract convert and check their fields where they are built.
"""

import math
from enum import Enum
from fractions import Fraction

from .errors import ConfigError
from .phy import Exchange
from .traces import Tspec

SCHEDULERS = ("hcca", "atxop", "amtxop")


class GrantBasis(Enum):
    REFERENCE_MEAN = "reference_mean"
    PIGGYBACK_SIZE = "piggyback_size"


def compute_si(beacon_interval_s: Fraction, msi_min_s: Fraction) -> Fraction:
    """Service interval: the beacon interval divided by the smallest integer
    x such that BI/x does not exceed the minimum MSI."""
    if msi_min_s > beacon_interval_s:
        raise ConfigError(f"minimum MSI {msi_min_s} exceeds beacon interval {beacon_interval_s}")
    return beacon_interval_s / math.ceil(beacon_interval_s / msi_min_s)


def msdu_count(si_s: Fraction, rho_bps: Fraction, mean_msdu_bytes: int) -> int:
    """MSDUs arriving per service interval at the mean rate, at least 1.

    Exact rational arithmetic: the ratio si*rho/(8*L) frequently lands
    exactly on an integer and the ceiling must not flap on float error.
    """
    return max(1, math.ceil(si_s * rho_bps / (8 * mean_msdu_bytes)))


def reference_overhead(n_msdus: int, price: Exchange) -> Fraction:
    """Per-TXOP overhead: one poll, then per MSDU an ACK, the data frame's
    preamble/PLCP/MAC header, and three interframe spaces, plus one
    propagation delay."""
    per_msdu = price.ack + price.hdr + 3 * price.sifs
    return price.poll + n_msdus * per_msdu + price.prop


def reference_bytes(tspec: Tspec, si_s) -> int:
    """Payload of the mean-based grant: the mean MSDUs arriving per
    service interval, or one maximum MSDU if that is larger."""
    n = msdu_count(si_s, tspec.mean_rate_bps, tspec.mean_msdu_bytes)
    return max(n * tspec.mean_msdu_bytes, tspec.max_msdu_bytes)


def txop_reference(tspec: Tspec, si_s, price: Exchange) -> Fraction:
    """The mean-based grant in microseconds, poll included: the reference
    payload plus the overhead of one MSDU exchange per mean MSDU, at the
    exchange's price."""
    n = msdu_count(si_s, tspec.mean_rate_bps, tspec.mean_msdu_bytes)
    return reference_bytes(tspec, si_s) * price.byte + reference_overhead(n, price)


def admissible(load, si, beacon_interval_s: Fraction, t_cp_s: Fraction) -> bool:
    """Admission control: the per-SI TXOP load must fit the contention-free
    share of the beacon interval, load/si <= (BI - t_cp)/BI. Unit-free:
    load and si share one time unit, the beacon interval and t_cp another.
    """
    return load * beacon_interval_s <= (beacon_interval_s - t_cp_s) * si
