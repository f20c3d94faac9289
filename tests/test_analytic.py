import math
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hccasim.analytic import (
    AnalyticInputs,
    _walk,
    aggregate_delay,
    aggregate_delay_alt,
    analytic_inputs,
    position_delays,
)
from hccasim.engine import Scenario, StationSpec, run_scenario
from hccasim.hcca import SCHEDULERS, msdu_count, reference_bytes, txop_reference
from hccasim.phy import (
    PROFILE_11B,
    PROFILE_11G,
    US_PER_S,
    airtime_control,
    airtime_data,
    airtime_multipoll,
    exchange,
)
from hccasim.traces import parse_trace

from conftest import CANONICAL, VALIDATION, entries, inputs_us, make_scenario, make_tspec, shipped_trace

# jp1-class stream on the validation PHY: payload at 36 Mb/s, control at 1 Mb/s
REF = Fraction(7500 * 8 * 10**6, 36_000_000)      # 5000/3 us
MEAN = Fraction(3820 * 8 * 10**6, 36_000_000)     # 7640/9 us


def inputs_11g(refs, payload, control_rate=1_000_000):
    """Model inputs on 11g with the payload at 36 Mb/s."""
    return AnalyticInputs.from_us(
        exchange(PROFILE_11G, control_rate, 36_000_000),
        airtime_multipoll(len(refs), PROFILE_11G, control_rate),
        refs,
        payload,
    )


def make_inputs(n=2, m=1, ref=REF, payload=MEAN, control_rate=1_000_000):
    return inputs_11g((ref,) * n, (((payload,) * n) for _ in range(m)), control_rate)


def fractions(lo, hi):
    return st.fractions(min_value=Fraction(lo), max_value=Fraction(hi))


@st.composite
def random_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=4))
    refs = tuple(draw(fractions(100, 5000)) for _ in range(n))
    payload = tuple(
        tuple(draw(fractions(0, 5000)) for _ in range(n)) for _ in range(m)
    )
    return inputs_11g(refs, payload, draw(st.sampled_from([None, 1_000_000, 2_000_000])))


def hcca_step(tspec, control_rate):
    """The model's hcca delay from polling position 1 to position 2 on 11g
    at SI = 40 ms, both stations sending the same frame: the channel time
    it charges the first station as a predecessor."""
    trace = parse_trace("0 I 0 100\n")
    inputs = analytic_inputs(trace, 2, tspec, Fraction(1, 25), PROFILE_11G, 1, control_rate)
    first, second = position_delays("hcca", inputs)[0]
    return second - first


def contract(mean_msdu, max_msdu, msdus_per_si, rate):
    """A contract of msdus_per_si mean MSDUs per 40 ms SI."""
    return make_tspec(mean_msdu, max_msdu, 200 * mean_msdu * msdus_per_si, rate)


class TestPredecessorTerm:
    def test_composition_at_54_control(self):
        # one mean MSDU at 54 Mb/s with control frames at the data rate
        assert hcca_step(contract(3800, 3800, 1, 54_000_000), 54_000_000) == Fraction(22832, 27)

    def test_composition_at_1_control(self):
        # one 7500-byte MSDU: a poll and an ACK of 408 us, three SIFS, prop
        assert hcca_step(contract(7500, 7500, 1, 36_000_000), 1_000_000) == REF + 848

    @pytest.mark.parametrize("msdus_per_si", [1, 2, 3])
    def test_step_is_the_reference_grant_less_c1(self, msdus_per_si):
        """Under hcca a predecessor holds the grant the engine makes,
        txop_reference, of which the model leaves out c1 = hdr."""
        tspec = contract(3800, 7500, msdus_per_si, 11_000_000)
        assert msdu_count(Fraction(1, 25), tspec.mean_rate_bps, 3800) == msdus_per_si
        price = exchange(PROFILE_11G, 2_000_000, 11_000_000)
        grant = txop_reference(tspec, Fraction(1, 25), price)
        assert hcca_step(tspec, 2_000_000) == grant - price.hdr


def _d_si_reference(scheduler, i, inputs, k):
    """Delay of position i in interval k as the direct sum over its
    predecessors j < i: the quadratic form of the model, kept as the
    oracle for position_delays."""
    price = inputs.price
    sifs, t_poll = price.sifs, price.poll
    refs, payload = inputs_us(inputs)
    actual = payload[k]
    own = actual[i - 1]
    preds = range(1, i)
    # the reference grant beyond one exchange, plus that exchange less c1
    td = [refs[j - 1] + t_poll + price.ack + 3 * sifs + price.prop for j in preds]

    def unused(j):
        gap = refs[j - 1] - actual[j - 1]
        return gap if gap > 0 else Fraction(0)

    if scheduler == "hcca":
        return sum(td, Fraction(0)) + own + t_poll + 2 * sifs
    if scheduler == "atxop":
        reclaimed = sum((unused(j) for j in preds), Fraction(0))
        return sum(td, Fraction(0)) - reclaimed + own + t_poll + 2 * sifs
    reclaimed = sum((unused(j) + t_poll for j in preds), Fraction(0))
    return inputs.t_mpoll + sum(td, Fraction(0)) - reclaimed + own + sifs


class TestPerStationDelay:
    def test_hcca_first_position(self):
        payload = Fraction(3800 * 8 * 10**6, 54_000_000)
        inputs = make_inputs(n=1, payload=payload, control_rate=54_000_000)
        assert position_delays("hcca", inputs)[0][0] == Fraction(19124, 27)

    def test_hcca_second_position(self):
        assert position_delays("hcca", make_inputs())[0][1] == Fraction(34124, 9)

    def test_atxop_reclaims_predecessor_tail(self):
        assert position_delays("atxop", make_inputs())[0][1] == Fraction(26764, 9)

    def test_amtxop_second_position(self):
        assert position_delays("amtxop", make_inputs())[0][1] == Fraction(23650, 9)

    def test_first_positions_differ_only_by_poll_mechanism(self):
        inputs = make_inputs()
        sifs = PROFILE_11G.sifs_us
        hcca, atxop, amtxop = (position_delays(s, inputs)[0][0] for s in SCHEDULERS)
        assert hcca == MEAN + inputs.price.poll + 2 * sifs
        assert atxop == hcca
        assert amtxop == inputs.t_mpoll + MEAN + sifs

    @given(inputs=random_inputs())
    @settings(max_examples=50)
    def test_equals_sum_over_predecessors(self, inputs):
        for s in SCHEDULERS:
            delays = position_delays(s, inputs)
            assert len(delays) == inputs.m_intervals
            total = Fraction(0)
            for k, row in enumerate(delays):
                assert len(row) == inputs.n_stations
                for i, d in enumerate(row, start=1):
                    assert d == _d_si_reference(s, i, inputs, k)
                    total += d
            assert aggregate_delay(s, inputs) == total / inputs.m_intervals

    @given(inputs=random_inputs())
    @settings(max_examples=50)
    def test_multipoll_minus_adaptive_identity(self, inputs):
        # d_AM - d_AT = T_mpoll - i*T_poll - SIFS, independent of traffic
        rows = zip(position_delays("amtxop", inputs), position_delays("atxop", inputs))
        for am_row, at_row in rows:
            for i, (am, at) in enumerate(zip(am_row, at_row), start=1):
                assert am - at == inputs.t_mpoll - i * inputs.price.poll - PROFILE_11G.sifs_us

    @given(inputs=random_inputs())
    @settings(max_examples=50)
    def test_adaptive_never_behind_reference(self, inputs):
        rows = zip(position_delays("atxop", inputs), position_delays("hcca", inputs))
        for at_row, hc_row in rows:
            assert all(at <= hc for at, hc in zip(at_row, hc_row))

    @given(inputs=random_inputs())
    @settings(max_examples=50)
    def test_reference_delay_grows_with_position(self, inputs):
        for delays, own in zip(position_delays("hcca", inputs), inputs_us(inputs)[1]):
            # strip the own payload term: the positional part is strictly increasing
            positional = [d - t for d, t in zip(delays, own)]
            assert positional == sorted(positional)
            assert len(set(positional)) == len(positional)

    def test_degenerate_full_grants_collapse_to_reference(self):
        inputs = make_inputs(payload=REF)
        assert position_delays("atxop", inputs) == position_delays("hcca", inputs)


class TestAggregate:
    def test_identical_intervals_average_to_single(self):
        one = make_inputs(m=1)
        many = make_inputs(m=5)
        for s in SCHEDULERS:
            single = sum(position_delays(s, one)[0])
            assert aggregate_delay(s, many) == single

    def test_alt_reading_offset(self):
        inputs = make_inputs()
        primary = aggregate_delay("hcca", inputs)
        gap = aggregate_delay_alt(inputs, primary) - primary
        assert gap == 2 * MEAN + 2 * PROFILE_11G.sifs_us

    def test_varying_intervals(self):
        inputs = inputs_11g((REF,), ((MEAN,), (Fraction(0),)))
        (d0,), (d1,) = position_delays("hcca", inputs)
        assert aggregate_delay("hcca", inputs) == (d0 + d1) / 2

    def test_shape_validation(self):
        price = exchange(PROFILE_11G, 1_000_000, 36_000_000)
        t_mpoll = airtime_multipoll(1, PROFILE_11G, 1_000_000)
        with pytest.raises(ValueError):
            AnalyticInputs.from_us(price, t_mpoll, (REF,), ((MEAN, MEAN),))
        with pytest.raises(ValueError):
            AnalyticInputs.from_us(price, t_mpoll, (), ())

    def test_den_makes_the_prices_integers(self):
        # a poll at 5.5 Mb/s lasts 120 + 576/11 us: den must be a multiple of 11
        price = exchange(PROFILE_11G, 5_500_000, 36_000_000)
        t_mpoll = airtime_multipoll(1, PROFILE_11G, 5_500_000)
        with pytest.raises(ValueError):
            AnalyticInputs(price, t_mpoll, 9, (0,), ((0,),))
        assert AnalyticInputs(price, t_mpoll, 99, (0,), ((0,),)).den == 99


class TestInputBuilder:
    TRACE = "0 I 0 1000\n1 P 40 500\n2 B 80 250\n"

    def tspec(self):
        return make_tspec(500, 1000, 100_000, 1_000_000)

    def test_bins_follow_service_intervals(self):
        trace = parse_trace(self.TRACE)
        inputs = analytic_inputs(trace, 2, self.tspec(), Fraction(1, 25), PROFILE_11G, m_intervals=3)
        assert inputs.m_intervals == 3
        assert inputs.n_stations == 2
        refs, payload = inputs_us(inputs)
        assert payload == ((8000, 8000), (4000, 4000), (2000, 2000))
        # one 500-byte MSDU per SI, but the 1000-byte maximum dominates
        assert refs == (8000, 8000)

    def test_window_slicing(self):
        trace = parse_trace(self.TRACE)
        inputs = analytic_inputs(trace, 1, self.tspec(), Fraction(1, 25), PROFILE_11G, m_intervals=2)
        assert inputs_us(inputs)[1] == ((8000,), (4000,))

    def test_empty_interval_contributes_zero(self):
        trace = parse_trace("0 I 0 1000\n1 P 80 500\n")
        inputs = analytic_inputs(trace, 1, self.tspec(), Fraction(1, 25), PROFILE_11G, m_intervals=3)
        assert inputs_us(inputs)[1] == ((8000,), (0,), (4000,))

    @pytest.mark.parametrize("si, m_intervals", [
        (Fraction(1, 25), 750),
        (Fraction(1, 25), 13110),         # runs past the last frame
        (Fraction(3, 50), 100),
        (Fraction(1, 20), 31),            # frames straddle interval edges
    ])
    def test_window_equals_full_binning(self, si, m_intervals):
        """Binning stops past the window, yet every interval in it holds
        what binning the whole trace puts there."""
        trace = shipped_trace("jp1_high")
        tspec = VALIDATION["jp1_high"]
        bins = {}
        for t, size in zip(trace.display, trace.sizes):
            k = math.floor(Fraction(t, trace.display_den) / (si * 1000))
            bins[k] = bins.get(k, 0) + size
        sizes = [bins.get(k, 0) for k in range(m_intervals)]
        inputs = analytic_inputs(
            trace, 2, tspec, si, PROFILE_11G, control_rate=1_000_000, m_intervals=m_intervals,
        )
        rate = tspec.min_phy_rate_bps
        assert inputs_us(inputs)[1] == tuple((Fraction(s * 8_000_000, rate),) * 2 for s in sizes)

    @given(
        profile=st.sampled_from([PROFILE_11B, PROFILE_11G]),
        control_rate=st.sampled_from([None, 1_000_000, 2_000_000, 5_500_000]),
        rate=st.sampled_from([5_500_000, 11_000_000, 36_000_000, 54_000_000]),
        n=st.integers(1, 12),
        si=st.sampled_from([Fraction(1, 25), Fraction(3, 50), Fraction(1, 30)]),
        m_intervals=st.integers(1, 5),
        mean_msdu=st.integers(1, 4000),
        frames=st.lists(st.tuples(st.integers(1, 70), st.integers(1, 20_000)), min_size=1, max_size=12),
    )
    # a poll at 5.5 Mb/s and a byte at 54 Mb/s: denominators 11 and 27
    @example(profile=PROFILE_11G, control_rate=5_500_000, rate=54_000_000, n=3,
             si=Fraction(1, 25), m_intervals=2, mean_msdu=3800, frames=[(1, 7000), (40, 3000)])
    @settings(max_examples=60)
    def test_integer_inputs_are_the_exact_times(self, profile, control_rate, rate, n, si,
                                                m_intervals, mean_msdu, frames):
        """Every cell over den is its interval's bytes at the payload rate,
        and the model on these inputs is the direct sum over predecessors."""
        tspec = make_tspec(mean_msdu, 4000, 300_000, rate, D="0.2", msi="0.1")
        # each frame is displayed gap ms after the one before it
        times = list(accumulate(gap for gap, _ in frames))
        sizes = [size for _, size in frames]
        trace = parse_trace("".join(f"{i} P {t} {size}\n"
                                    for i, (t, size) in enumerate(zip(times, sizes))))
        bins = [0] * m_intervals
        for t, size in zip(times, sizes):
            k = math.floor(Fraction(t) / (si * 1000))
            if k < m_intervals:
                bins[k] += size
        inputs = analytic_inputs(trace, n, tspec, si, profile, m_intervals, control_rate)
        refs, payload = inputs_us(inputs)
        assert payload == tuple((Fraction(b * 8 * US_PER_S, rate),) * n for b in bins)
        # the reference payload, and the exchanges of every mean MSDU but one
        price = exchange(profile, control_rate, rate)
        per_msdu = price.ack + price.hdr + 3 * price.sifs
        extra = (msdu_count(si, tspec.mean_rate_bps, mean_msdu) - 1) * per_msdu
        assert refs == (Fraction(reference_bytes(tspec, si) * 8 * US_PER_S, rate) + extra,) * n
        for s in SCHEDULERS:
            for k, row in enumerate(position_delays(s, inputs)):
                assert row == tuple(_d_si_reference(s, i, inputs, k) for i in range(1, n + 1))


def _identity_misses(result, inputs, control_rate, rate):
    """Measured frames of a model-comparison run whose simulated delay is
    not the model's delay plus the two header terms the model leaves out,
    to the tick, and the count of measured frames.

    Every station starts at the warmup boundary, in AID order, so polling
    position i is AID i+1, and SI = frame interval, so interval k holds one
    frame per station, generated at the interval start. The model omits
    c1, a data frame's PLCP and MAC header, once per predecessor, and
    c0 = c1 + prop - SIFS around the own burst. In interval 0 no report is
    held yet, so every grant is mean-sized and nothing is reclaimed: the
    adaptive schedulers grant as hcca does, and under amtxop a broadcast
    poll replaces each slot's own poll."""
    scheduler, profile, K = result.scenario.scheduler, result.scenario.profile, result.K
    c1 = airtime_data(0, profile, rate)
    c0 = c1 + profile.prop_delay_us - profile.sifs_us
    # the model's delays as integers over den, and c0 + i*c1 in ticks over den
    rows, den = _walk(scheduler, inputs)
    offsets = [_int(K * (c0 + i * c1) * den) for i in range(inputs.n_stations)]
    if scheduler != "hcca":
        row = position_delays("hcca", replace(inputs, payload=inputs.payload[:1]))[0]
        if scheduler == "amtxop":
            t_poll = airtime_control(profile, control_rate)
            t_mpoll = airtime_multipoll(inputs.n_stations, profile, control_rate)
            row = [d + t_mpoll - (i + 1) * t_poll - profile.sifs_us for i, d in enumerate(row)]
        rows[0] = [_int(d * den) for d in row]
    si_t = _int(K * US_PER_S * result.si_s)
    misses = frames = 0
    for aid, _seq, _size, gen, rx in entries(result.deliveries):
        if gen >= result.warmup_tick:
            frames += 1
            k, i = (gen - result.warmup_tick) // si_t, aid - 1
            misses += (rx - gen) * den != K * rows[k][i] + offsets[i]
    return misses, frames


def _int(x):
    """An exact value as an int when it is whole, so that comparing it is cheap."""
    return int(x) if x.denominator == 1 else x


class TestModelPinnedToEngine:
    """At SI = frame interval and without loss, the model and the engine
    are two implementations of one timing: they agree on every frame to
    the tick, up to the terms the model leaves out."""

    def test_validation_runs(self, lab):
        # the runs of the analytic-validation acceptance check: 11g, 1 Mb/s
        # control, payload at the contract rate, 750 measured intervals
        for trace_name in ("jp1_high", "jp1_low"):
            tspec = VALIDATION[trace_name]
            for n in range(1, 13):
                inputs = analytic_inputs(shipped_trace(trace_name), n, tspec, Fraction(1, 25),
                                         PROFILE_11G, control_rate=1_000_000, m_intervals=750)
                for scheduler in SCHEDULERS:
                    result = lab.validation_run(trace_name, scheduler, n)
                    got = _identity_misses(result, inputs, 1_000_000, tspec.min_phy_rate_bps)
                    assert got == (0, 750 * n), (trace_name, scheduler, n)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("trace_name, tspec, n, admitted", [
        pytest.param("jp1_low", VALIDATION["jp1_low"], 1, 1, id="1"),
        pytest.param("jp1_low", VALIDATION["jp1_low"], 4, 4, id="4"),
        pytest.param("jp1_low", VALIDATION["jp1_low"], 8, 8, id="8"),
        # the declared contract of the delay presets: 2 mean MSDUs per SI
        pytest.param("jp1_high", CANONICAL["jp1_high"], 3, 3, id="jp1_high-3"),
        # one stream past admission's limit: the sixth is turned away, and
        # the five admitted keep the identity
        pytest.param("jp1_high", CANONICAL["jp1_high"], 6, 5, id="jp1_high-6"),
    ])
    def test_11b_runs(self, scheduler, trace_name, tspec, n, admitted):
        trace = shipped_trace(trace_name)
        result = run_scenario(make_scenario(scheduler, [trace] * n, tspec, profile=PROFILE_11B,
                                            sim_time_s=Fraction(10), data_rate=tspec.min_phy_rate_bps))
        assert result.n_admitted == admitted
        inputs = analytic_inputs(trace, admitted, tspec, Fraction(1, 25), PROFILE_11B,
                                 control_rate=2_000_000, m_intervals=250)
        assert _identity_misses(result, inputs, 2_000_000, tspec.min_phy_rate_bps) == (0, 250 * admitted)

    @given(
        profile_rates=st.sampled_from([
            (PROFILE_11B, (1_000_000, 2_000_000, 5_500_000, 11_000_000)),
            (PROFILE_11G, (6_000_000, 9_000_000, 18_000_000, 36_000_000, 54_000_000)),
        ]),
        data=st.data(),
        control_rate=st.sampled_from([None, 1_000_000, 2_000_000, 5_500_000]),
        n=st.integers(1, 6),
        max_msdu=st.integers(1, 1500),
        warmup_si=st.integers(0, 3),
        msdus_per_si=st.integers(1, 3),
    )
    @settings(max_examples=100)
    def test_drawn_runs(self, profile_rates, data, control_rate, n, max_msdu, warmup_si,
                        msdus_per_si):
        """Any trace of one frame per 40 ms at SI = 40 ms, on either PHY, at
        any control rate, the data rate its contract names and a contract
        of 1 to 3 mean MSDUs per SI: every measured frame of every
        scheduler keeps the identity. It draws its own space, not
        conftest.scenarios(): the model holds only at SI = frame interval,
        without loss or mobility, with every stream starting at the warmup."""
        profile, rates = profile_rates
        rate = data.draw(st.sampled_from(rates), label="rate")
        sizes = data.draw(st.lists(st.integers(1, max_msdu), min_size=2, max_size=8), label="sizes")
        mean_msdu = data.draw(st.integers(1, max_msdu), label="mean_msdu")
        tspec = contract(mean_msdu, max_msdu, msdus_per_si, rate)
        trace = parse_trace("".join(f"{i} P {40 * i} {size}\n" for i, size in enumerate(sizes)))
        warmup = Fraction(warmup_si, 25)
        m = len(sizes)
        for scheduler in SCHEDULERS:
            result = run_scenario(Scenario(
                name="pin-drawn", scheduler=scheduler, profile=profile,
                stations=tuple(StationSpec(aid=i + 1, trace=trace, tspec=tspec, start_s=warmup)
                               for i in range(n)),
                sim_time_s=warmup + Fraction(m, 25), beacon_interval_s=Fraction(3, 25),
                warmup_s=warmup, control_rate=control_rate, data_rate=rate,
            ))
            assert result.si_s == Fraction(1, 25) and result.n_deferred_slots == 0
            k = result.n_admitted
            inputs = analytic_inputs(trace, k, tspec, result.si_s, profile,
                                     control_rate=control_rate, m_intervals=m)
            assert _identity_misses(result, inputs, control_rate, rate) == (0, m * k), scheduler
