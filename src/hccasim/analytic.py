"""Closed-form per-interval delay model for the three schedulers.

Predicts, for polling position i in one service interval, the time from
the interval start to the end of that station's burst. Predecessor j
contributes a term TD_j built from its reference payload time; the two
adaptive schedulers subtract the unused tail T_u_j = max(0, ref_j - t_j)
that a mean-sized grant would have wasted on the actual traffic, and the
multi-poll variant further removes the per-station poll frames in favor
of a single broadcast poll.

The sum over predecessors is a running sum over the polling order, so
the model walks each interval once: O(M*N) for M intervals of N
stations. The inputs are exact (`Fraction` or `int` microseconds); the
walk runs on integers over the lcm of their denominators, and each
result is divided once.

The model deliberately ignores PHY header time on data PPDUs and counts
one interframe space around the own burst, so a discrete-event run sits
a few percent above it, uniformly across schedulers and loads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .hcca import SCHEDULERS, reference_bytes
from .phy import US_PER_S, PhyProfile, airtime_control, airtime_multipoll
from .traces import Tspec, VideoTrace
from .util import exact


def td_i(payload_us, profile: PhyProfile, control_rate: int | None = None) -> Fraction:
    """Time one predecessor burst occupies the channel: its payload time
    plus a poll, an ACK, three interframe spaces and one propagation
    delay."""
    t_poll = t_ack = airtime_control(profile, control_rate)
    return exact(payload_us) + t_poll + t_ack + 3 * profile.sifs_us + profile.prop_delay_us


@dataclass(frozen=True)
class AnalyticInputs:
    """Inputs of the delay model for one admitted set.

    payload_us[k][i] is the actual payload airtime of polling position
    i+1 during service interval k; ref_payload_us[i] the constant
    reference payload time its mean-based grant would cover.
    """

    profile: PhyProfile
    ref_payload_us: tuple
    payload_us: tuple
    control_rate: int | None = None

    def __post_init__(self):
        if not self.ref_payload_us:
            raise ValueError("need at least one station")
        if not self.payload_us:
            raise ValueError("need at least one service interval")
        n = len(self.ref_payload_us)
        for k, row in enumerate(self.payload_us):
            if len(row) != n:
                raise ValueError(f"interval {k} has {len(row)} stations, expected {n}")

    @property
    def n_stations(self) -> int:
        return len(self.ref_payload_us)

    @property
    def m_intervals(self) -> int:
        return len(self.payload_us)

    @property
    def t_poll(self) -> Fraction:
        return airtime_control(self.profile, self.control_rate)

    @property
    def t_mpoll(self) -> Fraction:
        return airtime_multipoll(self.n_stations, self.profile, self.control_rate)


def _scaled(values, den):
    """Exact values as integers over den, a multiple of their denominators."""
    return [v.numerator * (den // v.denominator) for v in values]


def _walk(scheduler: str, inputs: AnalyticInputs):
    """The model's delays as integers over one denominator: (rows, den)
    where rows[k][i] / den us is the delay of polling position i+1 in
    interval k. `lead` holds the channel time of the predecessors walked
    so far."""
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}, expected one of {SCHEDULERS}")
    sifs = inputs.profile.sifs_us
    if scheduler == "amtxop":
        # multi-poll: one broadcast poll up front, predecessors shed their
        # individual polls, the own burst follows its backoff after one SIFS
        first, shed = inputs.t_mpoll + sifs, inputs.t_poll
    else:
        first, shed = inputs.t_poll + 2 * sifs, 0
    refs = inputs.ref_payload_us
    steps = [td_i(ref, inputs.profile, inputs.control_rate) - shed for ref in refs]
    payload = inputs.payload_us
    den = math.lcm(first.denominator, *{v.denominator for v in (*refs, *steps)},
                   *{p.denominator for row in payload for p in row})
    first, *steps = _scaled((first, *steps), den)
    refs = _scaled(refs, den)
    reclaim = scheduler != "hcca"

    rows = []
    for own_row in payload:
        lead = first
        row = []
        for own, ref, step in zip(_scaled(own_row, den), refs, steps):
            row.append(lead + own)
            lead += step
            if reclaim and ref > own:
                lead -= ref - own
        rows.append(row)
    return rows, den


def position_delays(scheduler: str, inputs: AnalyticInputs) -> tuple[tuple[Fraction, ...], ...]:
    """Delay of every polling position in every service interval, in us:
    element [k][i-1] is position i (1-based) in interval k."""
    rows, den = _walk(scheduler, inputs)
    return tuple(tuple(Fraction(d, den) for d in row) for row in rows)


def aggregate_delay(scheduler: str, inputs: AnalyticInputs) -> Fraction:
    """Sum of all stations' delays in one service interval, averaged over
    the intervals, in us."""
    rows, den = _walk(scheduler, inputs)
    return Fraction(sum(map(sum, rows)), den * inputs.m_intervals)


def aggregate_delay_alt(inputs: AnalyticInputs, primary: Fraction) -> Fraction:
    """Alternative reading that counts the own payload time and one
    interframe space twice per station, given the primary model's
    aggregate_delay on the same inputs. Reported alongside the primary
    model for comparison, never used for validation."""
    payload = inputs.payload_us
    den = math.lcm(*{p.denominator for row in payload for p in row})
    n_sifs = inputs.m_intervals * inputs.n_stations
    extra = sum(sum(_scaled(row, den)) for row in payload) + n_sifs * inputs.profile.sifs_us * den
    return primary + Fraction(extra, den * inputs.m_intervals)


def analytic_inputs(
    trace: VideoTrace,
    n_stations: int,
    tspec: Tspec,
    si_s,
    profile: PhyProfile,
    m_intervals: int,
    control_rate: int | None = None,
) -> AnalyticInputs:
    """Model inputs for n identical stations all streaming this trace in
    lockstep over the first m_intervals service intervals. Frames are
    binned into service intervals by generation time; each bin must fit
    its grant for the model to hold, which the TSPEC guarantees at the
    mean rate. Binning stops at the first frame past the last interval:
    the frames are in display order."""
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
    si = exact(si_s)
    rate = tspec.min_phy_rate_bps

    # interval k holds the display times d with floor(d / display_den / (1000 si)) = k
    num, den = si.numerator * 1000 * trace.display_den, si.denominator
    bins = {}
    for t, size in zip(trace.display, trace.sizes):
        k = t * den // num
        if k >= m_intervals:
            break
        bins[k] = bins.get(k, 0) + size
    sizes = [bins.get(k, 0) for k in range(m_intervals)]

    payload = tuple(
        (Fraction(s * 8 * US_PER_S, rate),) * n_stations for s in sizes
    )
    ref = Fraction(reference_bytes(tspec, si) * 8 * US_PER_S, rate)
    return AnalyticInputs(
        profile=profile,
        ref_payload_us=(ref,) * n_stations,
        payload_us=payload,
        control_rate=control_rate,
    )
