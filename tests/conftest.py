"""Shared scenario builders with a session-scoped run cache, views of a
run's results in microseconds, an exact oracle for a run's report, and
check_run, which asserts the engine's rules on one run.

Several acceptance checks read different aspects of the same sweeps
(ordering, slope, throughput, channel time), so simulation results are
memoized by scenario name for the lifetime of the test session.
"""

from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from hccasim.engine import Scenario, StationSpec, run_scenario
from hccasim.hcca import GrantBasis, compute_si, txop_reference
from hccasim.phy import PROFILE_11G, US_PER_S, airtime_multipoll, exchange
from hccasim.traces import Tspec, load_trace

ROOT = Path(__file__).resolve().parents[1]

# contracts as declared at admission (round numbers)
CANONICAL = {
    "jp1_high": Tspec(3800, 7500, Fraction(770_000), Fraction("0.08"), 11_000_000, Fraction("0.04")),
    "jp1_low": Tspec(770, 1100, Fraction(150_000), Fraction("0.08"), 11_000_000, Fraction("0.04")),
    "f1_high": Tspec(4200, 9800, Fraction(840_000), Fraction("0.08"), 11_000_000, Fraction("0.04")),
}

# trace-exact contracts for model validation; the MSDU rate doubles as
# the operative data rate so model payload times match the simulator
VALIDATION = {
    "jp1_high": Tspec(3820, 7500, Fraction(764_000), Fraction("0.08"), 36_000_000, Fraction("0.04")),
    "jp1_low": Tspec(765, 1100, Fraction(153_000), Fraction("0.08"), 4_000_000, Fraction("0.04")),
}

SCHEDULERS = ("hcca", "atxop", "amtxop")


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


def check_run(result):
    """Assert the rules the engine.py docstring states on one run, from the
    scenario and the run's records alone:

    - the service intervals step from the first admission by the SI of the
      streams admitted so far, up to the end of the run;
    - the grants of an interval go, in polling (admission) order, to a
      prefix of the streams active at its start, disjoint, after its
      multi-poll under amtxop, inside the interval and starting before the
      end of the run;
    - an interval that grants fewer streams than are active, with time
      left in the run, is one deferral;
    - under hcca every grant is the stream's reference grant at the
      interval's SI and PHY rate;
    - every delivery is a frame of its station's trace, generated before
      it is received, received inside a grant of its own station, and a
      station's delivered sequence numbers strictly increase.
    """
    sc, K = result.scenario, result.K
    per_s = K * US_PER_S   # ticks per second
    stations = {s.aid: s for s in sc.stations}
    polled = sorted((stations[aid] for aid in result.admitted_aids), key=lambda s: (s.start_s, s.aid))
    base_rate = sc.data_rate or sc.profile.data_rate
    changes = [tick for tick, _ in result.tier_changes]

    by_si = {}
    for k, aid, start, g, basis in entries(result.grants):
        by_si.setdefault(k, []).append((aid, start, g, basis))
    end_t = sc.sim_time_s * per_s
    t = polled[0].start_s if polled else sc.sim_time_s
    k = deferred = 0
    while t < sc.sim_time_s:
        admitted = [s for s in polled if s.start_s <= t]
        si = compute_si(sc.beacon_interval_s, min(s.tspec.msi_s for s in admitted))
        i = bisect_right(changes, t * per_s)
        rate = result.tier_changes[i - 1][1] if i else base_rate
        active = [] if rate is None else [s for s in admitted if s.stop_s is None or s.stop_s > t]
        grants = by_si.pop(k, [])
        assert [aid for aid, *_ in grants] == [s.aid for s in active[:len(grants)]], k
        end = t * per_s
        if sc.scheduler == "amtxop" and active:
            end += airtime_multipoll(len(active), sc.profile, sc.control_rate) * K
        for aid, start, g, basis in grants:
            assert end <= start < end_t and g > 0, (k, aid)
            end = start + g
            if sc.scheduler == "hcca":
                ref = txop_reference(stations[aid].tspec, si, exchange(sc.profile, sc.control_rate, rate))
                assert (g, basis) == (ref * K, GrantBasis.REFERENCE_MEAN), (k, aid)
        assert end <= (t + si) * per_s, k
        deferred += len(grants) < len(active) and end < end_t
        t, k = t + si, k + 1
    assert (k, deferred, by_si) == (result.n_service_intervals, result.n_deferred_slots, {})

    spans = {}
    for _k, aid, start, g, _basis in entries(result.grants):
        starts, ends = spans.setdefault(aid, ([], []))
        starts.append(start)
        ends.append(start + g)
    last = {}
    for aid, seq, size, gen, rx in entries(result.deliveries):
        assert size == stations[aid].trace.sizes[seq] and gen < rx, (aid, seq)
        assert seq > last.get(aid, -1), (aid, seq)
        last[aid] = seq
        starts, ends = spans[aid]
        i = bisect_right(starts, rx) - 1
        assert i >= 0 and rx <= ends[i], (aid, seq)


class SimLab:
    def __init__(self):
        self._traces = {}
        self._cache = {}

    def trace(self, name):
        if name not in self._traces:
            self._traces[name] = load_trace(ROOT / "traces" / f"{name}.txt")
        return self._traces[name]

    def run(self, scenario):
        if scenario.name not in self._cache:
            self._cache[scenario.name] = run_scenario(scenario)
        return self._cache[scenario.name]

    def results(self):
        return list(self._cache.values())

    def _stations(self, trace_name, tspec, n, start_s):
        trace = self.trace(trace_name)
        return tuple(
            StationSpec(aid=i + 1, trace=trace, tspec=tspec, start_s=start_s)
            for i in range(n)
        )

    def delay_run(self, trace_name, scheduler, n, per=0.0, sim_time=60, seed=None):
        """Steady-state run: stations start at the 20 s warmup boundary so
        the measured window sees the trace prefix."""
        name = f"delay-{trace_name}-{scheduler}-n{n}-per{per}-t{sim_time}"
        if seed is None:
            seed = 1000 * SCHEDULERS.index(scheduler) + 10 * n + round(per * 100)
        else:
            name += f"-s{seed}"
        return self.run(
            Scenario(
                name=name,
                scheduler=scheduler,
                profile=PROFILE_11G,
                stations=self._stations(trace_name, CANONICAL[trace_name], n, Fraction(20)),
                sim_time_s=Fraction(sim_time),
                beacon_interval_s=Fraction(3, 25),
                warmup_s=Fraction(20),
                control_rate=2_000_000,
                per=per,
                seed=seed,
            )
        )

    def validation_run(self, trace_name, scheduler, n):
        """Model-comparison run: 1 Mb/s control, payload at the contract
        rate, 750 measured intervals."""
        tspec = VALIDATION[trace_name]
        return self.run(
            Scenario(
                name=f"val-{trace_name}-{scheduler}-n{n}",
                scheduler=scheduler,
                profile=PROFILE_11G,
                stations=self._stations(trace_name, tspec, n, Fraction(20)),
                sim_time_s=Fraction(50),
                beacon_interval_s=Fraction(3, 25),
                warmup_s=Fraction(20),
                control_rate=1_000_000,
                data_rate=tspec.min_phy_rate_bps,
                seed=77 + n,
            )
        )


@pytest.fixture(scope="session")
def lab():
    return SimLab()
