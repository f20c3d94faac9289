"""PHY-layer airtime arithmetic.

Every duration is returned in microseconds as an exact Fraction; rounding
happens only when values are printed. The preamble and PLCP header of a
PPDU always go out at the (slow) PLCP rate, the MAC header and payload at
the effective PHY rate of the frame.

The profiles are the two constants below and every rate is checked where
it enters, so these functions take their arguments as given.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

US_PER_S = 1_000_000

# Multi-poll frame layout: a basic (non-QoS) MAC header in front of a fixed
# control body plus one 4-byte record (AID and TXOP duration) per polled
# station; only the total length affects timing.
MULTIPOLL_MAC_HEADER_BYTES = 24
MULTIPOLL_FIXED_BODY_BYTES = 13
MULTIPOLL_RECORD_BYTES = 4


@dataclass(frozen=True)
class PhyProfile:
    """Timing constants of one PHY flavor.

    Rates are bit/s, sizes bytes, durations integer microseconds.
    """

    name: str
    preamble_bytes: int
    plcp_header_bytes: int
    plcp_rate: int        # bit/s
    data_rate: int        # bit/s
    basic_rate: int       # bit/s
    mac_header_bytes: int
    sifs_us: int          # [us]
    prop_delay_us: int    # [us]


PROFILE_11G = PhyProfile(
    name="11g",
    preamble_bytes=12,
    plcp_header_bytes=3,
    plcp_rate=1_000_000,
    data_rate=54_000_000,
    basic_rate=1_000_000,
    mac_header_bytes=36,
    sifs_us=10,
    prop_delay_us=2,
)

PROFILE_11B = PhyProfile(
    name="11b",
    preamble_bytes=18,
    plcp_header_bytes=6,
    plcp_rate=1_000_000,
    data_rate=11_000_000,
    basic_rate=1_000_000,
    mac_header_bytes=36,
    sifs_us=10,
    prop_delay_us=2,
)

PROFILES = {"11g": PROFILE_11G, "11b": PROFILE_11B}


def _bits_time_us(bits: int, rate_bps: int) -> Fraction:
    return Fraction(bits * US_PER_S, rate_bps)


def plcp_time_us(profile: PhyProfile) -> Fraction:
    """Preamble plus PLCP header time at the PLCP rate."""
    bits = (profile.preamble_bytes + profile.plcp_header_bytes) * 8
    return _bits_time_us(bits, profile.plcp_rate)


def airtime_data(payload_bytes: int, profile: PhyProfile, rate: int) -> Fraction:
    """Over-the-air time of a data PPDU carrying payload_bytes, in us,
    the MAC header and payload at rate."""
    body_bits = (profile.mac_header_bytes + payload_bytes) * 8
    return plcp_time_us(profile) + _bits_time_us(body_bits, rate)


def _control_ppdu_us(body_bytes: int, profile: PhyProfile, control_rate: int | None) -> Fraction:
    """A control PPDU with a body_bytes MAC frame at control_rate, which
    defaults to the profile basic rate."""
    rate = profile.basic_rate if control_rate is None else control_rate
    return plcp_time_us(profile) + _bits_time_us(body_bytes * 8, rate)


def airtime_control(profile: PhyProfile, control_rate: int | None = None) -> Fraction:
    """Airtime of an ACK or a single poll: both are the same header-only
    PPDU at control_rate."""
    return _control_ppdu_us(profile.mac_header_bytes, profile, control_rate)


def airtime_multipoll(n_stations: int, profile: PhyProfile, control_rate: int | None = None) -> Fraction:
    """Airtime of one broadcast multi-poll frame for n_stations records."""
    body_bytes = (
        MULTIPOLL_MAC_HEADER_BYTES
        + MULTIPOLL_FIXED_BODY_BYTES
        + MULTIPOLL_RECORD_BYTES * n_stations
    )
    return _control_ppdu_us(body_bytes, profile, control_rate)


class Exchange(NamedTuple):
    """The parts of one polled exchange, in us: a poll, then per frame a
    data PPDU and its ACK, with interframe spaces between them and one
    propagation delay."""

    poll: Fraction    # a single poll, and an ACK: the same header-only PPDU
    hdr: Fraction     # a data PPDU carrying no payload
    byte: Fraction    # one payload byte of a data PPDU
    sifs: int
    prop: int

    @property
    def ack(self) -> Fraction:
        return self.poll


def exchange(profile: PhyProfile, control_rate: int | None, rate: int) -> Exchange:
    """The price of one polled exchange: polls and ACKs at control_rate
    (the profile basic rate when None), data PPDUs at rate."""
    return Exchange(airtime_control(profile, control_rate), airtime_data(0, profile, rate),
                    _bits_time_us(8, rate), profile.sifs_us, profile.prop_delay_us)
