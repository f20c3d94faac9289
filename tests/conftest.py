"""What the engine's tests share: builders of traces (the shipped ones
parsed once per session), contracts, scenarios and the regression grid;
views of a run's results in microseconds and an exact oracle for its
report; check_run, which asserts the engine's rules on one run;
scenarios(), the one drawn space of the engine's properties, paths(),
which names the engine paths a run took, and drawn_run(), which runs a
drawn scenario, labels its paths and checks its rules; and SimLab, a
session-scoped run cache: several acceptance checks read different
aspects of the same sweeps, so results are memoized by scenario name.
"""

import functools
import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import add, getitem, le, lt, sub
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import event
from hypothesis import strategies as st

from hccasim.engine import Mobility, Scenario, StationSpec, run_scenario
from hccasim.hcca import GrantBasis, compute_si, txop_reference
from hccasim.phy import PROFILE_11B, PROFILE_11G, US_PER_S, airtime_multipoll, exchange
from hccasim.traces import Tspec, load_trace, parse_trace

ROOT = Path(__file__).resolve().parents[1]
SCHEDULERS = ("hcca", "atxop", "amtxop")


@functools.cache
def shipped_trace(name):
    """traces/<name>.txt, parsed once per session."""
    return load_trace(ROOT / "traces" / f"{name}.txt")


def const_trace(n_frames, size, interval_ms=40):
    return parse_trace("\n".join(
        f"{i} {'I' if i % 12 == 0 else 'P'} {i * interval_ms} {size}" for i in range(n_frames)
    ))


def make_tspec(L=3800, M=7500, rho=770_000, R=11_000_000, D="0.08", msi="0.04"):
    return Tspec(L, M, Fraction(rho), Fraction(D), R, Fraction(msi))


def make_scenario(scheduler, traces=(), tspec=None, **kw):
    """One station per trace under tspec, from t = 0, for 0.2 s on 11g with
    a 120 ms beacon interval and 2 Mb/s control frames; kw replaces any of
    these, the stations too."""
    stations = tuple(StationSpec(aid=i + 1, trace=t, tspec=tspec) for i, t in enumerate(traces))
    return Scenario(**{
        "name": "test", "scheduler": scheduler, "profile": PROFILE_11G, "stations": stations,
        "sim_time_s": Fraction(1, 5), "beacon_interval_s": Fraction(3, 25), "control_rate": 2_000_000,
        **kw,
    })


# the rate tiers of presets/mobility.yaml
TIERS = ((80, 54_000_000), (200, 36_000_000), (250, 18_000_000), (325, 6_000_000))

# contracts as declared at admission (round numbers)
CANONICAL = {
    "jp1_high": make_tspec(3800, 7500, 770_000),
    "jp1_low": make_tspec(770, 1100, 150_000),
    "f1_high": make_tspec(4200, 9800, 840_000),
}

# trace-exact contracts for model validation; the MSDU rate doubles as
# the operative data rate so model payload times match the simulator
VALIDATION = {
    "jp1_high": make_tspec(3820, 7500, 764_000, 36_000_000),
    "jp1_low": make_tspec(765, 1100, 153_000, 4_000_000),
}


def _grid_stations(msis, starts=None, stops=None):
    starts, stops = starts or [0] * len(msis), stops or [None] * len(msis)
    return tuple(
        StationSpec(aid=i + 1, trace=shipped_trace("jp1_high"), tspec=make_tspec(D="0.12", msi=m),
                    start_s=Fraction(start), stop_s=None if stop is None else Fraction(stop))
        for i, (m, start, stop) in enumerate(zip(msis, starts, stops))
    )


# the regression grid: fallback and report-sized grants, deferral,
# multi-poll start times, admission as the service interval shrinks, loss,
# mobility across rate tiers, stream stop and the 11b profile
CASES = {
    "msi40": dict(stations=_grid_stations(["0.04"] * 4)),
    "msi60": dict(stations=_grid_stations(["0.06"] * 4)),
    "msi120": dict(stations=_grid_stations(["0.12"] * 3)),
    # later starters with tighter MSIs shrink the SI from 120 to 60 to 40 ms
    "mixed-msi": dict(stations=_grid_stations(["0.12", "0.12", "0.06", "0.04"],
                                              starts=[0, 0, "0.5", "1.1"])),
    "per": dict(stations=_grid_stations(["0.04"] * 5), per=0.12, seed=5),
    "mobility": dict(
        stations=_grid_stations(["0.04"] * 4), per=0.05, seed=9, sim_time_s=Fraction(5),
        mobility=Mobility(tiers=TIERS, speed_mps=Fraction(20), start_s=Fraction(0),
                          initial_distance_ft=Fraction(30)),
    ),
    "stop": dict(stations=_grid_stations(["0.04"] * 3, stops=[None, "0.9", None]),
                 warmup_s=Fraction(1, 2)),
    "11b": dict(stations=_grid_stations(["0.04"] * 6), profile=PROFILE_11B, per=0.03, seed=2),
}


def scenario(case, scheduler):
    """The regression grid's case under the scheduler, for 2 s unless the
    case says otherwise."""
    kw = {"name": f"{case}-{scheduler}", "sim_time_s": Fraction(2), **CASES[case]}
    return make_scenario(scheduler, **kw)


class Record(NamedTuple):
    """One delivered MSDU, in microseconds."""

    aid: int
    sequence: int
    size_bytes: int
    gen_time_us: Fraction
    rx_time_us: Fraction

    @property
    def delay_us(self) -> Fraction:
        return self.rx_time_us - self.gen_time_us


class GrantUs(NamedTuple):
    """One granted TXOP, in microseconds."""

    si_index: int
    aid: int
    start_us: Fraction
    duration_us: Fraction
    basis: object


def entries(flat):
    """The entries of a run's flat deliveries or grants, five values each."""
    return zip(*[iter(flat)] * 5)


def columns(flat):
    """The five columns of a run's flat deliveries or grants."""
    return tuple(flat[i::5] for i in range(5))


def records(result, from_tick=0) -> tuple:
    """The run's deliveries generated at or after from_tick, in us."""
    K = result.K
    return tuple(Record(aid, seq, size, Fraction(gen, K), Fraction(rx, K))
                 for aid, seq, size, gen, rx in entries(result.deliveries) if gen >= from_tick)


def grants_us(result, from_tick=0) -> tuple:
    """The run's grants starting at or after from_tick, in us."""
    K = result.K
    return tuple(GrantUs(k, aid, Fraction(start, K), Fraction(g, K), basis)
                 for k, aid, start, g, basis in entries(result.grants) if start >= from_tick)


def by_si(result) -> dict:
    """The run's grants in us, per interval index."""
    out = {}
    for g in grants_us(result):
        out.setdefault(g.si_index, []).append(g)
    return out


def measured_records(result) -> tuple:
    return records(result, result.warmup_tick)


def measured_grants(result) -> tuple:
    return grants_us(result, result.warmup_tick)


def tier_changes_us(result) -> tuple:
    """The run's tier changes as (us, rate)."""
    return tuple((Fraction(tick, result.K), rate) for tick, rate in result.tier_changes)


def inputs_us(inputs) -> tuple:
    """The delay model's inputs in us: its reference row (each reference
    grant beyond one exchange) and its payload rows."""
    den = inputs.den
    return (tuple(Fraction(c, den) for c in inputs.ref_excess),
            tuple(tuple(Fraction(c, den) for c in row) for row in inputs.payload))


def mean_delay_ms(records):
    """Mean delay of the records in ms, summed as exact Fractions of
    microseconds record by record (NaN if there are none)."""
    records = list(records)
    if not records:
        return float("nan")
    return sum((r.delay_us for r in records), Fraction(0)) / (len(records) * 1000)


def oracle_report(result):
    """(mean delay ms, throughput bit/s, TXOP s) of a run as exact
    Fractions, from the records and grants in microseconds rather than
    from the tick sums report() divides."""
    sc = result.scenario
    measured = measured_records(result)
    duration = Fraction(sc.sim_time_s) - Fraction(sc.warmup_s)
    return (
        mean_delay_ms(measured),
        Fraction(8 * sum(r.size_bytes for r in measured)) / duration,
        sum((g.duration_us for g in measured_grants(result)), Fraction(0)) / US_PER_S,
    )


def whole(x):
    """x, which must be a whole number of ticks, as an int."""
    assert x.denominator == 1, x
    return int(x)


@functools.cache
def generation_offsets(trace, K):
    """The ticks from a stream's start to the generation of each frame of
    its trace, at its display time."""
    return [whole(Fraction(d * 1000 * K, trace.display_den)) for d in trace.display]


def intervals(result):
    """The run's service intervals from its scenario and admissions: they
    step from the first admission by the SI of the streams admitted so
    far, up to the end of the run. Yields runs of intervals of one state:
    the first's index and start tick, their number, the SI in ticks, the
    active AIDs in polling (admission) order, the ticks before the first
    slot, and the hcca reference grants in ticks (None when adaptive)."""
    sc, K = result.scenario, result.K
    per_s = K * US_PER_S   # ticks per second
    admitted = [s for s in sc.stations if s.aid in result.admitted_aids]
    polled = sorted(admitted, key=lambda s: (s.start_s, s.aid))
    base_rate = sc.data_rate or sc.profile.data_rate
    changes = [tick for tick, _ in result.tier_changes]
    end_t = whole(sc.sim_time_s * per_s)
    # what is active, the SI and the rate change only at these ticks
    marks = sorted({whole(s.start_s * per_s) for s in polled} | set(changes)
                   | {whole(s.stop_s * per_s) for s in polled if s.stop_s is not None} | {end_t})
    t = whole(polled[0].start_s * per_s) if polled else end_t
    k = 0
    while t < end_t:
        admitted = [s for s in polled if s.start_s * per_s <= t]
        si = compute_si(sc.beacon_interval_s, min(s.tspec.msi_s for s in admitted))
        i = bisect_right(changes, t)
        rate = result.tier_changes[i - 1][1] if i else base_rate
        active = [] if rate is None else [s for s in admitted if s.stop_s is None or s.stop_s * per_s > t]
        si_t, lead, refs = whole(si * per_s), 0, None
        if sc.scheduler == "amtxop" and active:
            lead = whole(airtime_multipoll(len(active), sc.profile, sc.control_rate) * K)
        if sc.scheduler == "hcca" and active:
            price = exchange(sc.profile, sc.control_rate, rate)
            refs = [whole(txop_reference(s.tspec, si, price) * K) for s in active]
        # the intervals that start before the next mark
        n = -(-(marks[bisect_right(marks, t)] - t) // si_t)
        yield k, t, n, si_t, [s.aid for s in active], lead, refs
        t, k = t + n * si_t, k + n


def check_run(result):
    """Assert the rules the engine.py docstring states on one run, from the
    scenario and the run's records alone:

    - the service intervals are those of intervals(), and the run's grants
      come in interval order;
    - the grants of an interval go, in polling order, to a prefix of the
      streams active at its start, disjoint, after its multi-poll under
      amtxop, inside the interval and starting before the end of the run;
    - an interval that grants fewer streams than are active, with time
      left in the run, is one deferral;
    - under hcca every grant is the stream's reference grant at the
      interval's SI and PHY rate, and from the first interval that starts
      at or after the last admission up to the first tier change, the
      reference grants of an interval's active streams sum to at most
      (BI - t_cp)/BI of the SI, the contention-free share admission
      charges;
    - every delivery is a frame of its station's trace, generated at its
      stream's start plus its display time and before it is received,
      received after a grant of its own station starts and no later than
      that grant ends, and a station's delivered sequence numbers strictly
      increase;
    - an admitted stream generates the frames displayed before its stop and
      the end of the run, and each is delivered, lost or left queued.
    """
    sc, K = result.scenario, result.K
    per_s = K * US_PER_S   # ticks per second
    end_t = whole(sc.sim_time_s * per_s)
    ks, aids, starts, gs, bases = columns(result.grants)
    ends = list(map(add, starts, gs))
    assert ks == sorted(ks) and all(map(le, ends, starts[1:]))
    assert not gs or (min(gs) > 0 and starts[-1] < end_t)
    if sc.scheduler == "hcca":
        assert bases.count(GrantBasis.REFERENCE_MEAN) == len(bases)
    # a rate drop re-plans grants that admission never charged, so the
    # budget rule stops at the first tier change; the one at tick 0 sets
    # the group's first tier
    bi = sc.beacon_interval_s
    budget_from = max((whole(s.start_s * per_s) for s in sc.stations if s.aid in result.admitted_aids),
                      default=end_t)
    budget_to = next((tick for tick, _ in result.tier_changes if tick), end_t)
    n_si = deferred = 0
    for k, t, n, si_t, active, lead, refs in intervals(result):
        lo, hi, m = bisect_left(ks, k), bisect_left(ks, k + n), len(active)
        if refs is not None and budget_from <= t < budget_to:
            assert sum(refs) * bi <= (bi - sc.t_cp_s) * si_t, k
        n_si = k + n
        if m and hi - lo == m * n and ks[lo:hi:m] == ks[lo + m - 1:hi:m] == list(range(k, n_si)):
            # each interval of the run grants every active stream: check them at once
            assert aids[lo:hi] == active * n, k
            assert all(map(le, range(t + lead, t + lead + n * si_t, si_t), starts[lo:hi:m])), k
            assert all(map(le, ends[lo + m - 1:hi:m], range(t + si_t, t + (n + 1) * si_t, si_t))), k
            assert refs is None or gs[lo:hi] == refs * n, k
            continue
        for k in range(k, n_si):
            lo, hi = bisect_left(ks, k, lo), bisect_left(ks, k + 1, lo)
            c, end = hi - lo, t + lead
            assert aids[lo:hi] == active[:c], k
            if c:
                assert end <= starts[lo] and ends[hi - 1] <= t + si_t, k
                end = ends[hi - 1]
                assert refs is None or gs[lo:hi] == refs[:c], k
            deferred += c < m and end < end_t
            t += si_t
    assert (n_si, deferred) == (result.n_service_intervals, result.n_deferred_slots)
    assert not ks or (ks[0] >= 0 and ks[-1] < n_si)

    daids, seqs, sizes, gens, rxs = columns(result.deliveries)
    stations = {s.aid: s for s in sc.stations}
    traces = {aid: s.trace.sizes for aid, s in stations.items()}
    assert list(map(getitem, map(traces.__getitem__, daids), seqs)) == sizes
    assert all(map(lt, gens, rxs))
    first = {aid: whole(s.start_s * per_s) for aid, s in stations.items()}
    by_trace = {id(s.trace): s.trace for s in stations.values()}   # hash each trace once
    by_trace = {key: generation_offsets(trace, K) for key, trace in by_trace.items()}
    offsets = {aid: by_trace[id(s.trace)] for aid, s in stations.items()}
    assert (list(map(sub, gens, map(first.__getitem__, daids)))
            == list(map(getitem, map(offsets.__getitem__, daids), seqs)))
    generated = 0
    for aid in result.admitted_aids:
        stop_t = whole(min(stations[aid].stop_s or sc.sim_time_s, sc.sim_time_s) * per_s)
        generated += bisect_left(offsets[aid], stop_t - first[aid])
    assert result.n_generated == generated == result.n_delivered + result.n_lost + result.n_left_queued
    # the last grant to start before each delivery is its station's
    slot = list(map(bisect_left, itertools.repeat(starts), rxs))
    assert list(map([0, *aids].__getitem__, slot)) == daids
    assert all(map(le, rxs, map([0, *ends].__getitem__, slot)))
    last = dict.fromkeys(stations, -1)
    for aid, seq in zip(daids, seqs):
        assert seq > last[aid], (aid, seq)
        last[aid] = seq


RATES = (1_000_000, 6_000_000, 11_000_000, 54_000_000)


@st.composite
def group_walks(draw, slowing=False):
    """A group's walk through one to four rate tiers. A slowing walk, one
    of them, crosses two to four tiers whose distinct rates fall with
    distance, as in presets/mobility.yaml, from an inner tier edge at 1 m/s
    or more within half a second, so that each crossing slows the rate."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=120), min_size=1 + slowing, max_size=4))
    bounds = list(itertools.accumulate(gaps))
    if slowing:
        rates = sorted(draw(st.permutations(RATES))[:len(bounds)], reverse=True)
        return Mobility(tiers=tuple(zip(bounds, rates)), speed_mps=Fraction(draw(st.integers(1, 60))),
                        start_s=Fraction(draw(st.integers(0, 500)), 1000),
                        initial_distance_ft=Fraction(draw(st.sampled_from(bounds[:-1]))))
    # few rates, so adjacent tiers often share one
    rates = draw(st.lists(st.sampled_from(RATES), min_size=len(bounds), max_size=len(bounds)))
    last = bounds[-1]
    start_ft = draw(st.one_of(
        st.sampled_from(bounds),                                 # on a tier edge
        st.integers(min_value=0, max_value=10 * last).map(lambda d: Fraction(d, 10)),
        st.integers(min_value=last + 1, max_value=last + 40),    # beyond the tiers
    ))
    # sevenths of a m/s and milliseconds put most crossings between ticks
    speed = draw(st.one_of(
        st.integers(min_value=0, max_value=60).map(Fraction),
        st.integers(min_value=0, max_value=420).map(lambda n: Fraction(n, 7)),
    ))
    start_s = draw(st.one_of(
        st.integers(min_value=0, max_value=12).map(lambda n: Fraction(n, 10)),
        st.integers(min_value=0, max_value=1200).map(lambda n: Fraction(n, 1000)),
    ))
    return Mobility(
        tiers=tuple(zip(bounds, rates)),
        speed_mps=speed,
        start_s=start_s,
        initial_distance_ft=Fraction(start_ft),
    )


# per stream, a trace and its contract's mean MSDU, maximum MSDU and mean
# rate; no frame is larger than its contract's maximum
TRAFFIC = {
    "constant": (const_trace(15, 3800), 3800, 7500, 770_000),
    # sizes that vary from interval to interval, an I frame every 12th
    "vbr": (parse_trace("\n".join(
        f"{i} {'I' if i % 12 == 0 else 'P'} {i * 40} {7000 if i % 12 == 0 else 1500 + 700 * (i % 5)}"
        for i in range(75)
    )), 3800, 7500, 770_000),
    # half-millisecond display times (display denominator 2), 40 ms apart on average
    "half-ms": (parse_trace("\n".join(
        f"{i} {'I' if i % 12 == 0 else 'P'} {40 * i + (i % 3) / 2} {900 + 1300 * (i % 4)}"
        for i in range(61)
    )), 3800, 7500, 770_000),
    # a large grant behind which a smaller one can be deferred
    "large": (const_trace(15, 12_000), 12_000, 12_000, 2_400_000),
    "small": (const_trace(10, 200), 200, 200, 40_000),
}
MSIS = ("0.04", "0.06", "0.08", "0.12")
# data rates at which one stream of any traffic above fits any SI alone
DATA_RATES = {PROFILE_11B: (5_500_000, 11_000_000), PROFILE_11G: (6_000_000, 18_000_000, 54_000_000)}


# the axes of the drawn space: streams start and stop on and off the 40 ms
# grid, under one MSI or mixed ones, so the SI can be on or off the frame
# interval; the warmup falls a few ms into an interval, where grants straddle it
AXES = dict(
    scheduler=st.sampled_from(SCHEDULERS),
    profile=st.sampled_from([PROFILE_11B, PROFILE_11G]),
    control_rate=st.sampled_from([None, 1_000_000, 2_000_000, 5_500_000]),
    msi=st.sampled_from((None, *MSIS)),   # None: one per stream
    stream_msi=st.sampled_from(MSIS),
    traffic=st.sampled_from(sorted(TRAFFIC)),
    n_stations=st.integers(1, 8),
    # half the streams start at 0 and half never stop (a stop is ms after the start)
    start_ms=st.sampled_from(range(-500, 501, 4)).map(lambda ms: max(ms, 0)),
    stop_ms=st.integers(-1500, 1500).map(lambda ms: ms if ms > 0 else None),
    # any length, or a few ms past a beacon interval, where the last grants of a run are cut
    sim_ms=st.integers(100, 3000) | st.integers(120, 3005).map(lambda ms: ms - ms % 120 + ms % 6),
    warmup_bi=st.integers(0, 7),
    warmup_ms=st.integers(0, 5),
    t_cp_ms=st.integers(0, 30),
    per=st.floats(0, 0.3),
    seed=st.integers(0, 2**16),
    mobility=st.none() | group_walks() | group_walks(slowing=True),
)


def scenarios(**narrow):
    """The engine's drawn scenario space. A property narrows it by naming
    axes of AXES with a value or a narrower strategy for each."""
    assert narrow.keys() <= AXES.keys(), narrow.keys() - AXES.keys()
    axes = {**AXES, **{axis: value if isinstance(value, st.SearchStrategy) else st.just(value)
                       for axis, value in narrow.items()}}
    data_rates = {p: st.sampled_from([None, *rates]) for p, rates in DATA_RATES.items()}

    @st.composite
    def draw_scenario(draw):
        ax = {k: functools.partial(draw, v) for k, v in axes.items()}
        profile, msi, sim = ax["profile"](), ax["msi"](), ax["sim_ms"]()
        stations = []
        for aid in range(1, ax["n_stations"]() + 1):
            trace, L, M, rho = TRAFFIC[ax["traffic"]()]
            start, stop = ax["start_ms"](), ax["stop_ms"]()
            stations.append(StationSpec(
                aid=aid, trace=trace, tspec=make_tspec(L, M, rho, D="0.12", msi=msi or ax["stream_msi"]()),
                start_s=Fraction(start, 1000),
                stop_s=None if stop is None else Fraction(start + stop, 1000),
            ))
        warmup = 120 * min(ax["warmup_bi"](), (sim - 6) // 120) + ax["warmup_ms"]()
        return Scenario(
            name="drawn", scheduler=ax["scheduler"](), profile=profile, stations=tuple(stations),
            sim_time_s=Fraction(sim, 1000), beacon_interval_s=Fraction(3, 25),
            t_cp_s=Fraction(ax["t_cp_ms"](), 1000), warmup_s=Fraction(warmup, 1000),
            control_rate=ax["control_rate"](), data_rate=draw(data_rates[profile]),
            per=ax["per"](), seed=ax["seed"](), mobility=ax["mobility"](),
        )

    return draw_scenario()


PATHS = (
    "a deferral with a later active stream",
    "a header-only exchange",
    "two exchanges in one slot",
    "a stream event between two slots of one interval",
    "a grant cut by the end of the run",
    "a tier change",
    "a lost report followed by a mean-sized grant",
    "SI != frame interval",
)


def paths(result):
    """The labels of PATHS the run took, read off the scenario and the
    run's records alone. A label is claimed only where the records prove
    the path, given that no frame is larger than its contract's maximum
    MSDU, so that every grant holds at least one exchange."""
    sc, K = result.scenario, result.K
    per_s = K * US_PER_S
    end_t = whole(sc.sim_time_s * per_s)
    stations = {s.aid: s for s in sc.stations}
    ks, aids, starts, gs, bases = columns(result.grants)
    daids, seqs, _, _, rxs = columns(result.deliveries)
    slot = [bisect_left(starts, rx) - 1 for rx in rxs]   # the grant each delivery falls in
    found = set()
    if len(set(slot)) < len(slot):
        found.add("two exchanges in one slot")
    if len(result.tier_changes) > 1:
        found.add("a tier change")
    # a trace's frame interval is the mean gap between its display times
    if any(Fraction(t.display[-1] - t.display[0], t.display_den * (len(t) - 1)) != result.si_s * 1000
           for t in (stations[aid].trace for aid in result.admitted_aids)):
        found.add("SI != frame interval")

    events = sorted(whole(t * per_s) for s in sc.stations for t in (s.start_s, s.stop_s)
                    if t is not None and t < sc.sim_time_s)
    for k, t, n, si_t, active, lead, _refs in intervals(result):
        for k in range(k, k + n):
            lo, hi = bisect_left(ks, k), bisect_left(ks, k + 1)
            if hi - lo < len(active):
                if (starts[hi - 1] + gs[hi - 1] if hi > lo else t + lead) >= end_t:
                    found.add("a grant cut by the end of the run")
                elif hi - lo < len(active) - 1:
                    found.add("a deferral with a later active stream")
            if hi - lo > 1 and bisect_right(events, starts[hi - 1]) > bisect_right(events, starts[lo]):
                found.add("a stream event between two slots of one interval")
            t += si_t

    first = {aid: whole(s.start_s * per_s) for aid, s in stations.items()}
    offsets = {aid: generation_offsets(s.trace, K) for aid, s in stations.items()}
    done = dict.fromkeys(stations, 0)   # 1 + the last sequence number delivered so far
    filled, last, j = set(slot), {}, 0
    for i, (k, aid, start, basis) in enumerate(zip(ks, aids, starts, bases)):
        while j < len(slot) and slot[j] < i:
            done[daids[j]] = seqs[j] + 1
            j += 1
        # every frame generated by the grant's start was delivered before it
        if bisect_right(offsets[aid], start - first[aid]) <= done[aid]:
            found.add("a header-only exchange")
        p = last.get(aid)
        # the station's grant in the previous interval delivered nothing, though
        # its trace held a frame to report: the report went down with the frame
        if (sc.scheduler != "hcca" and basis is GrantBasis.REFERENCE_MEAN and p is not None
                and ks[p] == k - 1 and p not in filled
                and bisect_right(offsets[aid], starts[p] - first[aid]) < len(offsets[aid])):
            found.add("a lost report followed by a mean-sized grant")
        last[aid] = i
    return found


def drawn_run(scenario):
    """Run a drawn scenario, label the engine paths it took with
    hypothesis.event(), and check the engine's rules on it."""
    result = run_scenario(scenario)
    for label in paths(result):
        event(label)
    check_run(result)
    return result


class SimLab:
    def __init__(self):
        self._cache = {}

    def run(self, scenario):
        if scenario.name not in self._cache:
            self._cache[scenario.name] = run_scenario(scenario)
        return self._cache[scenario.name]

    def results(self):
        return list(self._cache.values())

    @staticmethod
    def _stations(trace_name, tspec, n):
        """n streams of the shipped trace, from the 20 s warmup boundary."""
        trace = shipped_trace(trace_name)
        return tuple(StationSpec(aid=i + 1, trace=trace, tspec=tspec, start_s=Fraction(20))
                     for i in range(n))

    def delay_run(self, trace_name, scheduler, n, per=0.0, sim_time=60, seed=None):
        """Steady-state run: stations start at the 20 s warmup boundary so
        the measured window sees the trace prefix."""
        name = f"delay-{trace_name}-{scheduler}-n{n}-per{per}-t{sim_time}"
        if seed is None:
            seed = 1000 * SCHEDULERS.index(scheduler) + 10 * n + round(per * 100)
        else:
            name += f"-s{seed}"
        return self.run(make_scenario(
            scheduler, name=name, stations=self._stations(trace_name, CANONICAL[trace_name], n),
            sim_time_s=Fraction(sim_time), warmup_s=Fraction(20), per=per, seed=seed,
        ))

    def validation_run(self, trace_name, scheduler, n):
        """Model-comparison run: 1 Mb/s control, payload at the contract
        rate, 750 measured intervals."""
        tspec = VALIDATION[trace_name]
        return self.run(make_scenario(
            scheduler, name=f"val-{trace_name}-{scheduler}-n{n}",
            stations=self._stations(trace_name, tspec, n), sim_time_s=Fraction(50),
            warmup_s=Fraction(20), control_rate=1_000_000, data_rate=tspec.min_phy_rate_bps, seed=77 + n,
        ))


@pytest.fixture(scope="session")
def lab():
    return SimLab()
