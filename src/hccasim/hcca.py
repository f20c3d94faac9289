"""Polled-TXOP schedulers: their names, and the reference scheduler's
service interval, grants and admission.

The reference scheduler sizes every grant from the TSPEC means, so grants
are constant for a fixed admitted set. Admission charges these reference
grants: the engine sizes every traffic contract's grant at the candidate
SI and asks `admissible` whether the admitted streams' sum fits the
contention-free share of the beacon interval. All arithmetic is exact; durations are Fractions of
microseconds and intervals Fractions of seconds.
"""

import math
from enum import Enum
from fractions import Fraction

from .errors import ConfigError
from .phy import US_PER_S, PhyProfile, airtime_control, airtime_data
from .traces import Tspec
from .util import exact

SCHEDULERS = ("hcca", "atxop", "amtxop")


class GrantBasis(Enum):
    REFERENCE_MEAN = "reference_mean"
    PIGGYBACK_SIZE = "piggyback_size"


def compute_si(beacon_interval_s, msi_min_s) -> Fraction:
    """Service interval: the beacon interval divided by the smallest integer
    x such that BI/x does not exceed the minimum MSI."""
    bi = exact(beacon_interval_s)
    msi = exact(msi_min_s)
    if bi <= 0 or msi <= 0:
        raise ConfigError("beacon interval and MSI must be > 0")
    if msi > bi:
        raise ConfigError(f"minimum MSI {msi} exceeds beacon interval {bi}")
    x = math.ceil(bi / msi)
    return bi / x


def msdu_count(si_s, rho_bps, mean_msdu_bytes: int) -> int:
    """MSDUs arriving per service interval at the mean rate, at least 1.

    Exact rational arithmetic: the ratio si*rho/(8*L) frequently lands
    exactly on an integer and the ceiling must not flap on float error.
    """
    si = exact(si_s)
    rho = exact(rho_bps)
    if si <= 0 or rho <= 0 or mean_msdu_bytes <= 0:
        raise ValueError("si, rho and mean MSDU size must be > 0")
    n = math.ceil(si * rho / (8 * mean_msdu_bytes))
    return max(1, n)


def reference_overhead(
    n_msdus: int,
    profile: PhyProfile,
    control_rate: int | None = None,
    data_rate_override: int | None = None,
) -> Fraction:
    """Per-TXOP overhead: one poll, then per MSDU an ACK, the data frame's
    preamble/PLCP/MAC header, and three interframe spaces, plus one
    propagation delay. The MAC header goes at data_rate_override, by
    default the profile data rate."""
    if n_msdus < 1:
        raise ValueError("n_msdus must be >= 1")
    t_poll = t_ack = airtime_control(profile, control_rate)
    t_hdr = airtime_data(0, profile, data_rate_override)
    per_msdu = t_ack + t_hdr + 3 * profile.sifs_us
    return t_poll + n_msdus * per_msdu + profile.prop_delay_us


def reference_bytes(tspec: Tspec, si_s) -> int:
    """Payload of the mean-based grant: the mean MSDUs arriving per
    service interval, or one maximum MSDU if that is larger."""
    n = msdu_count(si_s, tspec.mean_rate_bps, tspec.mean_msdu_bytes)
    return max(n * tspec.mean_msdu_bytes, tspec.max_msdu_bytes)


def txop_reference(
    tspec: Tspec,
    si_s,
    profile: PhyProfile,
    control_rate: int | None,
    rate: int,
) -> Fraction:
    """The mean-based grant in microseconds, poll included: the reference
    payload plus the overhead of one MSDU exchange per mean MSDU, payload
    and MAC headers both at the PHY rate given."""
    n = msdu_count(si_s, tspec.mean_rate_bps, tspec.mean_msdu_bytes)
    t_payload = Fraction(reference_bytes(tspec, si_s) * 8 * US_PER_S, rate)
    return t_payload + reference_overhead(n, profile, control_rate, rate)


def admissible(load, si, beacon_interval_s, t_cp_s) -> bool:
    """Admission control: the per-SI TXOP load must fit the contention-free
    share of the beacon interval, load/si <= (BI - t_cp)/BI. Unit-free:
    load and si share one time unit, the beacon interval and t_cp another.
    """
    bi = exact(beacon_interval_s)
    t_cp = exact(t_cp_s)
    if t_cp < 0:
        raise ValueError("t_cp must be >= 0")
    return exact(load) / exact(si) <= (bi - t_cp) / bi
