"""Reference polled-TXOP scheduler: service interval, grants, admission.

The reference scheduler sizes every grant from the TSPEC means, so grants
are constant for a fixed admitted set. All arithmetic is exact; durations
are Fractions of microseconds and intervals Fractions of seconds.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import ConfigError
from .phy import US_PER_S, FrameKind, PhyProfile, airtime_control, airtime_data
from .traces import Tspec
from .util import exact


class GrantBasis(Enum):
    REFERENCE_MEAN = "reference_mean"
    PIGGYBACK_SIZE = "piggyback_size"


@dataclass(frozen=True)
class TxopGrant:
    aid: int | None
    duration_us: Fraction
    basis: GrantBasis

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ValueError("grant duration must be > 0")


@dataclass(frozen=True)
class PollEntry:
    aid: int
    tspec: Tspec
    overhead_us: Fraction     # per-grant overhead used to size this stream's TXOP
    grant: TxopGrant


@dataclass(frozen=True)
class PollingList:
    """Admitted streams in polling order, with the committed service interval."""

    beacon_interval_s: Fraction
    entries: tuple = ()
    si_s: Fraction = Fraction(0)

    def __len__(self):
        return len(self.entries)


def min_msi(msis) -> Fraction:
    """Smallest maximum service interval of the given streams."""
    msis = list(msis)
    if not msis:
        raise ValueError("need at least one MSI")
    if any(m <= 0 for m in msis):
        raise ValueError("MSIs must be > 0")
    return min(exact(m) for m in msis)


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
    propagation delay. The header term follows the stream's effective PHY
    rate, so a rate override here must match the one used for payload time.
    """
    if n_msdus < 1:
        raise ValueError("n_msdus must be >= 1")
    t_poll = airtime_control(FrameKind.SINGLE_POLL, profile, control_rate)
    t_ack = airtime_control(FrameKind.ACK, profile, control_rate)
    t_hdr = airtime_data(0, profile, data_rate_override)
    per_msdu = t_ack + t_hdr + 3 * profile.sifs_us
    return t_poll + n_msdus * per_msdu + profile.prop_delay_us


def txop_reference(tspec: Tspec, si_s, overhead_us) -> TxopGrant:
    """Grant sized for N mean MSDUs (or one maximum MSDU if that is longer)
    at the stream's PHY rate, plus the given overhead."""
    si = exact(si_s)
    n = msdu_count(si, tspec.mean_rate_bps, tspec.mean_msdu_bytes)
    r = tspec.min_phy_rate_bps
    t_mean = Fraction(n * tspec.mean_msdu_bytes * 8 * US_PER_S, r)
    t_max = Fraction(tspec.max_msdu_bytes * 8 * US_PER_S, r)
    duration = max(t_mean, t_max) + exact(overhead_us)
    return TxopGrant(aid=None, duration_us=duration, basis=GrantBasis.REFERENCE_MEAN)


def admit(
    polling_list: PollingList,
    candidate: Tspec,
    t_cp_s,
    overhead_us,
    aid: int | None = None,
):
    """Admission control: recompute the SI with the candidate included,
    re-size every grant at that SI, and accept only if the per-SI TXOP
    load fits the contention-free share of the beacon interval.

    Returns (accepted, polling_list); the list is unchanged on reject.
    """
    t_cp = exact(t_cp_s)
    if t_cp < 0:
        raise ValueError("t_cp must be >= 0")
    bi = polling_list.beacon_interval_s
    msis = [e.tspec.msi_s for e in polling_list.entries] + [candidate.msi_s]
    new_si = compute_si(bi, min_msi(msis))

    overhead = exact(overhead_us)
    new_entries = []
    for e in polling_list.entries:
        grant = txop_reference(e.tspec, new_si, e.overhead_us)
        new_entries.append(replace(e, grant=replace(grant, aid=e.aid)))
    cand_grant = txop_reference(candidate, new_si, overhead)

    load = sum((e.grant.duration_us for e in new_entries), Fraction(0))
    load = (load + cand_grant.duration_us) / (new_si * US_PER_S)
    budget = (bi - t_cp) / bi
    if load > budget:
        return False, polling_list

    if aid is None:
        aid = max((e.aid for e in polling_list.entries), default=0) + 1
    entry = PollEntry(aid=aid, tspec=candidate, overhead_us=overhead, grant=replace(cand_grant, aid=aid))
    return True, PollingList(
        beacon_interval_s=bi,
        entries=tuple(new_entries) + (entry,),
        si_s=new_si,
    )
