"""Closed-form per-interval delay model for the three schedulers.

Predicts, for polling position i in one service interval, the time from
the interval start to the end of that station's burst. Predecessor j
occupies the channel for the reference grant `hcca.txop_reference` sizes
for it, less c1; the two adaptive schedulers subtract the unused tail
T_u_j = max(0, ref_j - t_j) that a mean-sized grant would have wasted on
the actual traffic, and the multi-poll variant further removes the
per-station poll frames in favor of a single broadcast poll.

The sum over predecessors is a running sum over the polling order, so
the model walks each interval once: O(M*N) for M intervals of N
stations. The inputs are integers over one denominator, built where
they are made, so the walk runs on integers and each result is divided
once.

Every term is priced from `phy.exchange` at the payload rate, and every
reference grant by `hcca`, as the engine plans it. Against a loss-free
run at SI = frame interval the model leaves out exactly two terms, both
the header time `hdr` of a data PPDU: c1 = hdr for each predecessor and
c0 = hdr + prop - sifs for the own burst. Except in interval 0 of
atxop/amtxop: no report is held there yet, so the run's grants are
mean-sized and reclaim nothing, where the model reclaims.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .hcca import reference_overhead, txop_reference
from .phy import Exchange, PhyProfile, airtime_multipoll, exchange
from .traces import Tspec, VideoTrace
from .util import exact


def _price_den(price: Exchange, t_mpoll: Fraction) -> int:
    """The least denominator over which the walk's fixed prices are integers."""
    return math.lcm(*(x.denominator for x in (t_mpoll, price.poll, price.ack, price.sifs, price.prop)))


@dataclass(frozen=True)
class AnalyticInputs:
    """Inputs of the delay model for one admitted set, in us over den (a
    multiple of _price_den): payload[k][i] / den is the actual payload
    airtime of polling position i+1 in service interval k, ref_excess[i]
    / den the time its reference grant spans beyond one exchange (the
    reference payload plus n - 1 exchange overheads for n mean MSDUs per
    SI). The walk adds that exchange less c1: the engine's planned grant
    less c1."""

    price: Exchange       # the exchange at the payload rate
    t_mpoll: Fraction     # one multi-poll for all the stations
    den: int
    ref_excess: tuple
    payload: tuple

    def __post_init__(self):
        if not self.ref_excess:
            raise ValueError("need at least one station")
        if not self.payload:
            raise ValueError("need at least one service interval")
        n = len(self.ref_excess)
        for k, row in enumerate(self.payload):
            if len(row) != n:
                raise ValueError(f"interval {k} has {len(row)} stations, expected {n}")
        if self.den % _price_den(self.price, self.t_mpoll):
            raise ValueError(f"den {self.den} leaves the prices fractional")

    @classmethod
    def from_us(cls, price: Exchange, t_mpoll: Fraction, ref_excess_us, payload_us):
        """Inputs from exact times in us (`Fraction` or `int`)."""
        rows = [[exact(v) for v in row] for row in (ref_excess_us, *payload_us)]
        den = math.lcm(_price_den(price, t_mpoll), *(v.denominator for row in rows for v in row))
        ref, *payload = (tuple(int(v * den) for v in row) for row in rows)
        return cls(price, t_mpoll, den, ref, tuple(payload))

    @property
    def n_stations(self) -> int:
        return len(self.ref_excess)

    @property
    def m_intervals(self) -> int:
        return len(self.payload)


def _walk(scheduler: str, inputs: AnalyticInputs):
    """The model's delays as integers over inputs.den: (rows, den) where
    rows[k][i] / den us is the delay of polling position i+1 in interval
    k. `lead` holds the channel time of the predecessors walked so far."""
    price, den = inputs.price, inputs.den
    if scheduler == "amtxop":
        # multi-poll: one broadcast poll up front, predecessors shed their
        # individual polls, the own burst follows its backoff after one SIFS
        first, shed = inputs.t_mpoll + price.sifs, price.poll
    else:
        first, shed = price.poll + 2 * price.sifs, 0
    # each step adds the one exchange ref_excess leaves out, less c1 and the shed poll
    first, fixed = int(first * den), int((reference_overhead(1, price) - price.hdr - shed) * den)
    refs = inputs.ref_excess
    steps = [ref + fixed for ref in refs]
    reclaim = scheduler != "hcca"

    rows = []
    for own_row in inputs.payload:
        lead = first
        row = []
        for own, ref, step in zip(own_row, refs, steps):
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
    n_sifs = inputs.m_intervals * inputs.n_stations
    extra = sum(map(sum, inputs.payload)) + n_sifs * inputs.price.sifs * inputs.den
    return primary + Fraction(extra, inputs.den * inputs.m_intervals)


def analytic_inputs(
    trace: VideoTrace,
    n_stations: int,
    tspec: Tspec,
    si_s: Fraction,
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
    price = exchange(profile, control_rate, tspec.min_phy_rate_bps)

    # interval k holds the display times d with floor(d / display_den / (1000 si)) = k
    num, den = si_s.numerator * 1000 * trace.display_den, si_s.denominator
    bins = {}
    for t, size in zip(trace.display, trace.sizes):
        k = t * den // num
        if k >= m_intervals:
            break
        bins[k] = bins.get(k, 0) + size
    sizes = [bins.get(k, 0) for k in range(m_intervals)]

    t_mpoll = airtime_multipoll(n_stations, profile, control_rate)
    ref = txop_reference(tspec, si_s, price) - reference_overhead(1, price)
    den = math.lcm(price.byte.denominator, ref.denominator, _price_den(price, t_mpoll))
    byte = int(price.byte * den)
    return AnalyticInputs(price, t_mpoll, den, (int(ref * den),) * n_stations,
                          tuple((s * byte,) * n_stations for s in sizes))
