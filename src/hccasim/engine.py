"""Discrete-event simulation of polled uplink TXOPs on one channel.

Time is integer ticks at K ticks per microsecond, with K the least common
multiple of R/gcd(R, 8 MHz) over every PHY rate in the scenario; every
frame airtime and interframe space then lands exactly on the grid and a
run is reproducible bit for bit.

One loop steps the run's service intervals from the first admission on,
one pass per polled slot each: it sizes the slot's TXOP, then serves it,
before it sizes the next. It binds the grant constants, the active
stations and the poll lead once, and again only at the first interval
start after a stream event or a tier crossing. Before each slot the
stream events up to its start tick are handled, and the station's frames
generated up to and including that tick join its queue. Stream starts
and stops are the only events off the interval grid: all of them up to
and including a tick are handled before that tick's interval start or
slot, in tick order, starts before stops, then by AID. So a stream event
between two slots of an interval changes none of its grants.

A station's frames are generated in trace order and leave its queue from
the head, delivered or lost, so the queue is a window of trace indices:
frames head up to (not including) the next to be generated. Each station
holds the generation ticks of its frames generated before its stop tick
and the end of the run, computed once per run, then the end of the run
itself, which no slot start reaches: the head frame is queued at a slot
start exactly when its tick is at most the slot's, with no search. The
stations with one trace, start and stop share one such list.

Per service interval the AP issues one TXOP per admitted stream, in
admission order, which is not AID order when a stream with a higher AID
starts first. Grant boundaries are rigid: a station that
finishes early leaves the remainder idle, and a frame that does not fit
stays queued. Under the multi-poll scheduler stations start their TXOP
immediately when the preceding one ends, having counted down the
predecessor durations from the broadcast poll; under the single-poll
schedulers each TXOP begins with its poll frame.

Every uplink frame that arrives, a header-only one too, reports the size
of the station's next frame: the head of its queue after the exchange, or
when that is empty the next frame to be generated, or nothing past the end
of its trace. The AP holds the latest report per station until a grant is
sized from it. A lost uplink frame still consumes its full exchange time
(the ACK slot runs dead), is dropped without retransmission, and carries
its report down with it, so the following interval falls back to a
mean-sized grant unless an earlier report is still held. Loss takes one
draw per exchange, in slot order, and none at a loss rate of 0.

A stream's mean-based reference grant depends only on its traffic
contract (its TSPEC), the SI and the PHY rate, so the run plans one per
distinct TSPEC, in integer ticks at its one PHY rate, and re-plans them
whenever the service interval or that rate changes. Per interval a grant
is then either the reference grant of the station's contract or a fixed
part plus ticks per reported byte. Admission plans every contract at the
candidate SI and charges the sum of the admitted streams' reference
grants, poll included, against the contention-free budget, so it charges
exactly what the engine grants under `hcca`; a rejected stream leaves the
plan as it was.

Under mobility the stations move as one group whose distance never
shrinks, so it lies past each tier bound from one tick on. The engine
computes those crossing ticks once per run, in exact arithmetic, and
finds the group's tier at a tick by bisecting them. The first interval
start at or past a crossing makes the new tier's rate the run's rate;
past the last tier the group is out of range for good: nobody is
served, the interval starts left are counted rather than stepped, and a
stream that starts while the group is past the last tier, between
interval starts too, is rejected.

A run's results are integer ticks: deliveries, grants and tier changes.
Deliveries and grants are flat lists of ints, five values per event, so a
run builds no container per event, and keeps no tally of frames: when it
ends, the frames that left a queue are its first head, and those
generated before the warmup its first bisect_left(gen_ticks, warmup_tick).
The measured sums (deliveries, delay ticks, payload bytes, granted ticks)
come from the records: the grants from the first that starts at the
warmup tick on, and the deliveries' totals less those of the frames
generated before it, found in one pass only when such a frame left a
queue. The report divides each sum once; only the SI is kept in seconds,
the unit it is configured in. A run builds no reference cycles, so it
runs with the cyclic garbage collector suspended: a collection during
the run would free nothing.
"""

import gc
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError
from .hcca import (
    SCHEDULERS,
    GrantBasis,
    admissible,
    compute_si,
    msdu_count,
    reference_overhead,
    txop_reference,
)
from .metrics import MetricsReport
from .phy import US_PER_S, PhyProfile, airtime_multipoll, exchange
from .traces import Tspec, VideoTrace
from .util import exact, exact_fields

M_TO_FT = Fraction("3.28084")


@dataclass(frozen=True)
class Mobility:
    """Group movement: the stations move as one group, starting at
    initial_distance_ft and walking outward at speed_mps from start_s, so
    they share one distance and one PHY rate. tiers maps range (feet) to
    the PHY rate sustained inside it; past the last tier the group
    disassociates."""

    tiers: tuple                 # ((max_distance_ft, rate_bps), ...) ascending
    speed_mps: Fraction
    start_s: Fraction
    initial_distance_ft: Fraction

    def __post_init__(self):
        exact_fields(self, "speed_mps", "start_s", "initial_distance_ft")
        object.__setattr__(self, "tiers", tuple((exact(d), r) for d, r in self.tiers))
        if not self.tiers:
            raise ConfigError("mobility needs at least one rate tier")
        dists = [d for d, _ in self.tiers]
        if dists != sorted(dists) or len(set(dists)) != len(dists):
            raise ConfigError("tier distances must be strictly ascending")
        if any(r <= 0 for _, r in self.tiers):
            raise ConfigError("tier rates must be > 0")
        if self.speed_mps < 0 or self.initial_distance_ft < 0:
            raise ConfigError("speed and initial distance must be >= 0")


@dataclass(frozen=True)
class StationSpec:
    aid: int
    trace: VideoTrace
    tspec: Tspec
    start_s: Fraction = Fraction(0)
    stop_s: Fraction | None = None

    def __post_init__(self):
        exact_fields(self, "start_s", "stop_s")
        if self.aid <= 0:
            raise ConfigError("aid must be > 0")
        if self.start_s < 0:
            raise ConfigError("start_s must be >= 0")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ConfigError("stop_s must be > start_s")


@dataclass(frozen=True)
class Scenario:
    name: str
    scheduler: str
    profile: PhyProfile
    stations: tuple
    sim_time_s: Fraction
    beacon_interval_s: Fraction
    t_cp_s: Fraction = Fraction(0)
    warmup_s: Fraction = Fraction(0)
    control_rate: int | None = None
    data_rate: int | None = None
    per: float = 0.0
    seed: int = 0
    mobility: Mobility | None = None
    log_events: bool = False

    def __post_init__(self):
        exact_fields(self, "sim_time_s", "beacon_interval_s", "t_cp_s", "warmup_s")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(
                f"unknown scheduler {self.scheduler!r}, expected one of {SCHEDULERS}"
            )
        if not self.stations:
            raise ConfigError("scenario needs at least one station")
        aids = [s.aid for s in self.stations]
        if len(set(aids)) != len(aids):
            raise ConfigError(f"duplicate aids: {aids}")
        if self.sim_time_s <= 0:
            raise ConfigError("sim_time_s must be > 0")
        if self.beacon_interval_s <= 0:
            raise ConfigError("beacon_interval_s must be > 0")
        if not 0 <= self.warmup_s < self.sim_time_s:
            raise ConfigError("warmup_s must lie inside the simulated time")
        if self.t_cp_s < 0:
            raise ConfigError("t_cp_s must be >= 0")
        if not 0 <= self.per < 1:
            raise ConfigError(f"per must be in [0, 1), got {self.per}")
        for name in ("control_rate", "data_rate"):
            rate = getattr(self, name)
            if rate is not None and rate <= 0:
                raise ConfigError(f"{name} must be > 0, got {rate}")


class Grant(NamedTuple):
    """One granted TXOP, in ticks."""

    si_index: int
    aid: int
    start_tick: int
    duration_ticks: int
    basis: GrantBasis


@dataclass
class RunResult:
    scenario: Scenario
    si_s: Fraction | None
    n_offered: int
    n_admitted: int
    admitted_aids: tuple
    rejected_aids: tuple
    K: int                  # ticks per microsecond
    warmup_tick: int        # deliveries and grants from it on are measured
    deliveries: list        # aid, sequence, size_bytes, gen_tick, rx_tick per delivery, in rx order
    grants: list            # the Grant fields per grant, in grant order
    # delivered, delay ticks and payload bytes of the frames generated from
    # warmup_tick on, and ticks of the grants starting from it; these and the
    # frame counts up to n_left_queued, but n_null_lost, come from the queues
    # and the records when the run ends
    measured: tuple
    n_generated: int
    n_delivered: int
    n_lost: int
    n_lost_measured: int
    n_null_lost: int
    n_left_queued: int
    n_deferred_slots: int
    n_beacons: int
    n_service_intervals: int
    tier_changes: tuple     # (tick, rate), rate None once out of range
    event_log: tuple

    @property
    def grant_log(self) -> tuple:
        """The grants as Grant tuples. Only perfbench/run.py reads it; it
        goes once the benchmark reads grants directly."""
        g = self.grants
        return tuple(Grant(*g[i:i + 5]) for i in range(0, len(g), 5))

    def report(self) -> MetricsReport:
        """The measured sums, each divided once, exactly, and the float taken
        last: mean delay in ms (NaN when nothing was delivered), payload bits
        per second of the measured window, and granted seconds."""
        n, delay_t, payload, granted_t = self.measured
        window_s = self.scenario.sim_time_s - self.scenario.warmup_s
        return MetricsReport(
            n_delivered=n,
            n_lost=self.n_lost_measured,
            mean_delay_ms=float(Fraction(delay_t, n * self.K * 1000)) if n else math.nan,
            throughput_bps=float(8 * payload / window_s),
            aggregate_txop_s=float(Fraction(granted_t, self.K * US_PER_S)),
        )


class _Station:
    __slots__ = (
        "spec", "aid", "contract", "start_t", "stop_t", "admitted", "rejected",
        "sizes", "gen_ticks", "head", "report",
    )

    def __init__(self, spec, contract, start_t, stop_t, gen_ticks, sizes):
        self.spec = spec
        self.aid = spec.aid
        self.contract = contract  # the index of its TSPEC in _Sim.tspecs
        self.start_t = start_t
        self.stop_t = stop_t      # no frame is generated, nor interval granted, from it on
        self.admitted = self.rejected = False
        self.sizes = sizes        # the trace's sizes, then None
        # the generation ticks of the frames generated before stop_t, then end_tick
        self.gen_ticks = gen_ticks
        # the queue is the trace frames from head up to the last one generated
        self.head = 0
        self.report = None        # the size report held for the next grant, if any


class _Sim:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.profile = scenario.profile
        self.ctrl = scenario.control_rate
        self.multipoll = scenario.scheduler == "amtxop"
        base_rate = scenario.data_rate or self.profile.data_rate

        rates = {self.profile.plcp_rate, self.profile.basic_rate, base_rate}
        if self.ctrl is not None:
            rates.add(self.ctrl)
        if scenario.mobility:
            rates.update(r for _, r in scenario.mobility.tiers)
        self.K = math.lcm(*(r // math.gcd(r, 8 * US_PER_S) for r in rates))

        self.end_tick = self._sec_ticks(scenario.sim_time_s)
        self.warmup_tick = self._sec_ticks(scenario.warmup_s)
        self.bi = scenario.beacon_interval_s

        per_trace = {}            # generation offsets and sizes, then None, per trace
        per_stream = {}           # generation ticks per trace, start and stop tick; never written
        contracts = {}            # the distinct TSPECs, numbered in AID order
        self.stations = {}
        for s in sorted(scenario.stations, key=lambda s: s.aid):
            if id(s.trace) not in per_trace:
                per_trace[id(s.trace)] = self._gen_offsets(s.trace), s.trace.sizes + (None,)
            offsets, sizes = per_trace[id(s.trace)]
            start_t = self._sec_ticks(s.start_s)
            stop_t = self.end_tick if s.stop_s is None else min(self._sec_ticks(s.stop_s), self.end_tick)
            key = id(s.trace), start_t, stop_t
            if key not in per_stream:
                per_stream[key] = self._gen_ticks(offsets, start_t, stop_t)
            self.stations[s.aid] = _Station(s, contracts.setdefault(s.tspec, len(contracts)), start_t,
                                            stop_t, per_stream[key], sizes)
        self.tspecs = tuple(contracts)
        self.polled = []          # admitted stations in polling order
        # the SI and each contract's reference grant at it, from the first admission on
        self.si_s = self.si_t = self.plan = None
        self.per = scenario.per
        self.rng = random.Random(scenario.seed)

        self.deliveries = []
        self.grants = []
        self.tier_changes = []
        self.event_log = []
        self.logging = scenario.log_events

        self.si_index = self.n_deferred = 0
        self.n_beacons = -(-self.end_tick // self._sec_ticks(self.bi))   # TBTTs before the end
        self.n_null_lost = 0

        # the run's PHY rate and the exchange at it, None until set
        self.rate = self.price = None
        self.out_of_range = False
        if scenario.mobility is None:
            self._set_rate(base_rate)
        else:
            self.tier_ticks = self._tier_ticks(scenario.mobility)
            # the group's rate by the number of tier bounds it has passed
            self.tier_rates = [r for _, r in scenario.mobility.tiers] + [None]
            self._apply_mobility(0)

        # stream starts (0) and stops (1) inside the run, last to be handled first
        sts = self.stations.values()
        self.stream_events = sorted(
            [(st.start_t, 0, st.aid) for st in sts if st.start_t < self.end_tick]
            + [(st.stop_t, 1, st.aid) for st in sts if st.stop_t < self.end_tick],
            reverse=True,
        )

    # -- time plumbing ---------------------------------------------------

    def _to_ticks(self, us) -> int:
        return self._ratio_ticks(*us.as_integer_ratio())

    def _ratio_ticks(self, num, den) -> int:
        """Ticks in num/den microseconds, which must lie on the tick grid."""
        ticks, rem = divmod(num * self.K, den)
        if rem:
            raise ConfigError(f"duration {Fraction(num, den)} us is off the 1/{self.K} us tick grid")
        return ticks

    def _sec_ticks(self, s) -> int:
        return self._to_ticks(s * US_PER_S)

    def _check_grid(self, trace: VideoTrace):
        """Raise on the trace's first display time off the tick grid, so a
        run fails before it starts, not when it reaches that frame."""
        den, ms_t = trace.display_den, 1000 * self.K
        # every display time is a multiple of their gcd
        if ms_t % den and math.gcd(*trace.display) * ms_t % den:
            for t in trace.display:
                self._ratio_ticks(t * 1000, den)

    def _gen_offsets(self, trace: VideoTrace) -> list:
        """Generation ticks from a stream's start of the trace's frames
        displayed before the end of the run; no later frame is ever
        generated, as no stream starts before tick 0."""
        self._check_grid(trace)
        den, ms_t = trace.display_den, 1000 * self.K
        # display * ms_t / den < end_tick, for integer display times
        n = bisect_left(trace.display, -(-self.end_tick * den // ms_t))
        return [t * ms_t // den for t in trace.display[:n]]

    def _gen_ticks(self, offsets, start_t, stop_t) -> list:
        """The generation ticks of a stream's frames generated before its
        stop tick, from its trace's offsets, then end_tick, which no slot
        start reaches."""
        n = bisect_left(offsets, stop_t - start_t)
        return [start_t + o for o in offsets[:n]] + [self.end_tick]

    # -- the grant plan ---------------------------------------------------

    def _plan(self, si) -> list:
        """Each contract's mean-based reference grant at the SI and the
        run's rate, in ticks and poll included: what admission charges."""
        return [self._to_ticks(txop_reference(tspec, si, self.price)) for tspec in self.tspecs]

    def _set_rate(self, rate):
        """Make rate the run's PHY rate, price one exchange at it in ticks,
        and re-plan every grant at it."""
        self.rate = rate
        self.price = price = exchange(self.profile, self.ctrl, rate)
        self.sifs_t = self._to_ticks(price.sifs)
        self.dp_t = self._to_ticks(price.prop)
        self.poll_t = self._to_ticks(price.poll)
        # a data frame's ticks for 0 payload bytes, and per payload byte
        self.hdr_t = self._to_ticks(price.hdr)
        self.byte_t = self._to_ticks(price.byte)
        # an exchange ends SIFS, ACK, SIFS after its data frame
        self.post_t = 2 * self.sifs_t + self._to_ticks(price.ack)
        # the broadcast multi-poll replaces every slot's own poll
        self.shed_t = self.poll_t if self.multipoll else 0
        # the report-sized grant for 0 bytes
        self.one_t = self._to_ticks(reference_overhead(1, price)) - self.shed_t
        if self.si_s is not None:
            self.plan = self._plan(self.si_s)

    # -- logging ---------------------------------------------------------

    def _log(self, tick, what, aid, fmt="", *args):
        """Log one event; its detail is formatted only when logging is on."""
        if not self.logging:
            return
        detail = fmt.format(*args)
        us, rem = divmod(tick, self.K)
        frac = (rem * US_PER_S + self.K // 2) // self.K
        if frac == US_PER_S:
            us, frac = us + 1, 0
        self.event_log.append(f"t={us}.{frac:06d} {what} aid={aid} {detail}".rstrip())

    # -- main loop -------------------------------------------------------

    def run(self) -> RunResult:
        events = self.stream_events
        # the first admission opens the interval grid at its own tick
        while not self.polled and events:
            tick = events[-1][0]
            self._streams_to(tick)
        if self.polled:
            self._intervals(tick)
        self._streams_to(self.end_tick)
        return self._finalize()

    def _streams_to(self, tick) -> int:
        """Handle every stream start and stop up to and including tick;
        return the next one's tick, or end_tick when none is left."""
        events = self.stream_events
        while events and events[-1][0] <= tick:
            t, is_stop, aid = events.pop()
            (self._on_stream_end if is_stop else self._on_stream_start)(t, self.stations[aid])
        return events[-1][0] if events else self.end_tick

    def _finalize(self) -> RunResult:
        admitted = tuple(st.aid for st in self.stations.values() if st.admitted)
        rejected = tuple(st.aid for st in self.stations.values() if st.rejected)
        # by the end of the run an admitted stream has generated all its frames
        generated = sum(len(st.gen_ticks) - 1 for st in self.polled)
        d, g, warmup_tick = self.deliveries, self.grants, self.warmup_tick
        n_delivered, left = len(d) // 5, sum(st.head for st in self.polled)
        # every frame that left a queue was delivered or lost, the frames
        # generated before the warmup first; only when some of those left is
        # a pass over the deliveries needed to find theirs
        left_early = sum(min(st.head, bisect_left(st.gen_ticks, warmup_tick)) for st in self.polled)
        early = [d[i:i + 5] for i in range(0, len(d), 5) if d[i + 3] < warmup_tick] if left_early else ()
        measured = (n_delivered - len(early),
                    sum(d[4::5]) - sum(d[3::5]) - sum(rx - gen for *_, gen, rx in early),
                    sum(d[2::5]) - sum(r[2] for r in early),
                    sum(g[5 * bisect_left(g[2::5], warmup_tick) + 3::5]))   # grants start in tick order
        return RunResult(
            scenario=self.sc,
            si_s=self.si_s,
            n_offered=len(self.sc.stations),
            n_admitted=len(admitted),
            admitted_aids=admitted,
            rejected_aids=rejected,
            K=self.K,
            warmup_tick=self.warmup_tick,
            deliveries=self.deliveries,
            grants=self.grants,
            measured=measured,
            n_generated=generated,
            n_delivered=n_delivered,
            n_lost=left - n_delivered,
            n_lost_measured=left - left_early - measured[0],
            n_null_lost=self.n_null_lost,
            n_left_queued=generated - left,
            n_deferred_slots=self.n_deferred,
            n_beacons=self.n_beacons,
            n_service_intervals=self.si_index,
            tier_changes=tuple(self.tier_changes),
            event_log=tuple(self.event_log),
        )

    # -- admission and traffic -------------------------------------------

    def _on_stream_start(self, tick, st):
        polled = self.polled + [st]
        # the new stream may shrink the SI, which changes every plan
        si = compute_si(self.bi, min(p.spec.tspec.msi_s for p in polled))
        si_t = self._sec_ticks(si)
        # every scheduler is charged the reference grants, poll included; a
        # group out of range now would never serve the stream; self.plan is
        # always the plan at self.si_s and the run's rate
        plan = (self.plan if si == self.si_s else self._plan(si)) if self._in_range(tick) else None
        if plan is None or not admissible(sum(plan[p.contract] for p in polled),
                                          si_t, self.bi, self.sc.t_cp_s):
            st.rejected = True
            self._log(tick, "ADMIT-REJECT", st.aid)
            return
        self.si_s, self.si_t, self.plan = si, si_t, plan
        st.admitted = True
        self.polled = polled
        if self.logging:
            tspec = st.spec.tspec
            self._log(tick, "ADMIT", st.aid, "si={:.6f}s n_msdu={}",
                      float(si), msdu_count(si, tspec.mean_rate_bps, tspec.mean_msdu_bytes))

    def _on_stream_end(self, tick, st):
        if self.logging:
            # by its stop tick a stream has generated every frame it generates
            queued = len(st.gen_ticks) - 1 - st.head if st.admitted else 0
            self._log(tick, "STREAM-END", st.aid, "queued={}", queued)

    # -- mobility ----------------------------------------------------------

    def _tier_ticks(self, mob: Mobility) -> list:
        """The tick from which the group lies past each tier bound, for the
        bounds it ever passes. Its distance never shrinks, so the ticks
        ascend and the bounds it never passes are the last ones."""
        d0 = mob.initial_distance_ft
        ft_per_s = mob.speed_mps * M_TO_FT
        ticks = []
        for b, _ in mob.tiers:
            if d0 > b:
                ticks.append(0)
            elif ft_per_s == 0:
                break
            else:
                # past b strictly after start_s + (b - d0) / speed
                cross_s = mob.start_s + (b - d0) / ft_per_s
                ticks.append(math.floor(cross_s * self.K * US_PER_S) + 1)
        return ticks

    def _tier_rate(self, tick):
        """The rate of the group's tier at this tick, None out of range."""
        return self.tier_rates[bisect_right(self.tier_ticks, tick)]

    def _group_distance(self, tick):
        """The group's distance in feet at this tick, for the log."""
        mob = self.sc.mobility
        dt_s = max(0, Fraction(tick, self.K * US_PER_S) - mob.start_s)
        return mob.initial_distance_ft + mob.speed_mps * M_TO_FT * dt_s

    def _in_range(self, tick) -> bool:
        """Whether the group is inside the last tier at this tick. Unlike
        the run's rate, which moves only at interval starts, this is where
        the group is now."""
        return self.sc.mobility is None or self._tier_rate(tick) is not None

    def _apply_mobility(self, tick):
        """Make the rate of the group's tier at this tick the run's rate
        when it changes, or take the group out of range."""
        if self.sc.mobility is None or self.out_of_range:
            return
        rate = self._tier_rate(tick)
        if rate is None:
            # the distance never shrinks, so the group never returns
            self.out_of_range = True
            if self.logging:
                distance = float(self._group_distance(tick))
                for aid in self.stations:
                    self._log(tick, "DISASSOCIATE", aid, "distance={:.2f}ft", distance)
            if self.rate is None:
                return   # a group that starts out of range has no tier to change from
        elif rate == self.rate:
            return
        else:
            self._set_rate(rate)
        self.tier_changes.append((tick, rate))
        self._log(tick, "TIER-CHANGE", 0, "rate={}", rate)

    # -- the contention-free period ---------------------------------------

    def _intervals(self, tick):
        """Every service interval from the first, at tick, on: one TXOP per
        active station in polling order, each sized, then served before the
        next is sized. The first grant that would overrun its interval and
        all after it are deferred, and no grant starts at or after the end
        of the run (nor is deferred). A slot handles the stream events up to
        its start, then sends the station's frames generated by then from
        its head, one data/ACK exchange each, while the next exchange fits
        in the grant; with nothing queued one header-only frame carries the
        size report. The grant constants, the active stations and the poll
        lead change only with a stream event or a tier crossing, so they are
        bound again only at the first interval start after one."""
        end_tick, logging = self.end_tick, self.logging
        deliveries, grants = self.deliveries, self.grants
        per, rand, multipoll = self.per, self.rng.random, self.multipoll
        reference = self.sc.scheduler == "hcca"   # it ignores reports
        mean, piggyback = GrantBasis.REFERENCE_MEAN, GrantBasis.PIGGYBACK_SIZE
        crossings = self.tier_ticks if self.sc.mobility else ()
        next_cross = 0   # the first interval start applies the tier, as a crossing does
        k = self.si_index
        next_event = self._streams_to(tick)   # the tick of the next stream event
        stale = True
        while tick < end_tick:
            if next_event <= tick:
                next_event = self._streams_to(tick)
                stale = True
            if tick >= next_cross:
                self._apply_mobility(tick)
                if self.out_of_range:
                    # nobody is served or admitted again: count the starts left
                    k += -(-(end_tick - tick) // self.si_t)
                    break
                next_cross = min((t for t in crossings if t > tick), default=end_tick)
                stale = True
            if stale:
                stale = False
                si_t, plan, one_t, byte_t, shed_t = self.si_t, self.plan, self.one_t, self.byte_t, self.shed_t
                hdr_t, post_t, dp_t = self.hdr_t, self.post_t, self.dp_t
                next_t = post_t + self.sifs_t   # from one data frame's end to the next one's start
                # slots are granted while the stream runs
                active = [st for st in self.polled if st.stop_t > tick]
                # a single-poll TXOP's first frame follows its poll, a multi-poll one's opens it
                first_t, open_t = 0, self.poll_t + self.sifs_t
                if multipoll and active:
                    first_t = self._to_ticks(airtime_multipoll(len(active), self.profile, self.ctrl))
                    open_t = 0
            cap_end, slot_t = tick + si_t, tick + first_t
            if logging and active:
                if multipoll:
                    self._log(tick, "MULTIPOLL", 0, "si={} records={}", k, len(active))
                defer_at = len(self.event_log)   # a deferral is logged before the slots
            for st in active:
                if slot_t >= end_tick:
                    break
                # a report sizes one grant only; polled one by one, the stations
                # after a deferral keep theirs
                size, st.report = st.report, None
                if size is None or reference:
                    g_t, basis = plan[st.contract] - shed_t, mean
                else:
                    g_t, basis = one_t + size * byte_t, piggyback
                slot_end = slot_t + g_t
                if slot_end > cap_end:
                    self.n_deferred += 1
                    if logging:
                        self._log(slot_t, "DEFER", st.aid, "si={}", k)
                        self.event_log.insert(defer_at, self.event_log.pop())
                    break
                grants += (k, st.aid, slot_t, g_t, basis)
                if next_event <= slot_t:
                    next_event = self._streams_to(slot_t)
                    stale = True
                gen_ticks, sizes, head = st.gen_ticks, st.sizes, st.head
                # an exchange fits while its data frame ends by data_lim; one draw
                # per exchange in slot order, and none without loss
                t, data_lim = slot_t + open_t, slot_end - post_t
                if gen_ticks[head] > slot_t:
                    # nothing queued: one header-only frame carries the report
                    if t + hdr_t <= data_lim:
                        if not per or rand() >= per:
                            st.report = sizes[head]
                        else:
                            self.n_null_lost += 1
                    slot_t = slot_end
                    continue
                aid = st.aid
                while True:
                    size = sizes[head]
                    data_end = t + hdr_t + size * byte_t
                    if data_end > data_lim:
                        break
                    seq, head = head, head + 1   # delivered or lost, it leaves the head
                    if not per or rand() >= per:
                        deliveries += (aid, seq, size, gen_ticks[seq], data_end + dp_t)
                        if logging:
                            self._log(data_end, "RX", aid, "seq={} size={}", seq, size)
                        # the size of the next frame to send, queued or not yet generated
                        st.report = sizes[head]
                    elif logging:
                        self._log(data_end, "LOST", aid, "seq={} size={}", seq, size)
                    if gen_ticks[head] > slot_t:
                        break
                    t = data_end + next_t
                st.head = head
                slot_t = slot_end
            else:
                st = None
            if multipoll and st:
                # one frame carried every grant: the stations not served lose their reports too
                for later in active[active.index(st):]:
                    later.report = None
            k += 1
            tick = cap_end
        self.si_index = k


def run_scenario(scenario: Scenario) -> RunResult:
    """Simulate one scenario to completion. Deterministic in (scenario,
    seed): two calls yield identical deliveries, grants and counters.

    The cyclic garbage collector is suspended for the run and left as it
    was found. A run builds no reference cycles: its results are flat lists
    of ints and enum members, and a station points only down to its spec
    and trace. A collection during a run would free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Sim(scenario).run()
    finally:
        if enabled:
            gc.enable()
