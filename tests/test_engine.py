import gc
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hccasim import engine
from hccasim.analytic import aggregate_delay, analytic_inputs
from hccasim.engine import M_TO_FT, Mobility, Scenario, StationSpec, run_scenario
from hccasim.errors import ConfigError
from hccasim.hcca import GrantBasis
from hccasim.phy import PROFILE_11B, PROFILE_11G, US_PER_S, airtime_multipoll
from hccasim.traces import Tspec, parse_trace

from conftest import (
    TIERS, by_si, check_run, const_trace, drawn_run, entries, generation_offsets, grants_us, group_walks,
    make_scenario, make_tspec, mean_delay_ms, measured_grants, measured_records, oracle_report, records,
    scenarios, whole,
)

TSPEC_54 = make_tspec(2700, 2700, 540_000, 54_000_000)


class TestReferenceTimeline:
    def test_single_station_exact_rx_times(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("hcca", [trace], TSPEC_54))
        # poll 264 + SIFS 10 + data (120 + 21888/54) + prop 2
        first_rx = Fraction(2404, 3)
        recs = records(result)
        assert recs[0].gen_time_us == 0
        assert recs[0].rx_time_us == first_rx
        assert recs[1].gen_time_us == 40_000
        assert recs[1].rx_time_us == 40_000 + first_rx
        assert result.n_delivered == 5
        assert result.si_s == Fraction(1, 25)

    def test_second_station_waits_full_grant(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("hcca", [trace] * 2, TSPEC_54))
        by_aid = {}
        for r in records(result):
            by_aid.setdefault(r.aid, []).append(r)
        assert by_aid[1][0].rx_time_us == Fraction(2404, 3)
        # grant of station 1 is 400 + 2056/3 us, rigid boundary
        assert by_aid[2][0].rx_time_us == Fraction(3256, 3) + Fraction(2404, 3)

    def test_grants_constant_and_reference_based(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("hcca", [trace] * 2, TSPEC_54))
        grants = grants_us(result)
        assert len(grants) == 2 * 5
        assert {g.duration_us for g in grants} == {Fraction(3256, 3)}
        assert {g.basis for g in grants} == {GrantBasis.REFERENCE_MEAN}
        for g in grants:
            assert g.start_us >= g.si_index * 40_000

    def test_two_msdus_per_interval_when_they_fit(self):
        # 400 kbit/s of 1000-byte MSDUs: two queued frames move in one TXOP
        tspec = make_tspec(1000, 1000, 400_000, 54_000_000)
        trace = parse_trace("0 I 0 1000\n1 P 20 1000\n2 B 40 1000\n3 P 60 1000\n")
        sc = make_scenario("hcca", [trace], tspec, sim_time_s=Fraction(3, 25))
        result = run_scenario(sc)
        assert result.n_delivered == 4
        # interval 1 holds the 20 ms and 40 ms frames
        rx1 = 40_000 + Fraction(14836, 27)
        recs = records(result)
        assert recs[1].rx_time_us == rx1
        # second exchange inside the same TXOP: SIFS + data + SIFS + ACK + SIFS
        assert recs[2].rx_time_us == rx1 + 294 + Fraction(7384, 27)

    def test_leftover_frame_waits_for_next_interval(self):
        tspec = make_tspec(1000, 1000, 400_000, 54_000_000)
        trace = parse_trace("0 I 0 1000\n1 P 10 1000\n2 B 20 1000\n3 P 30 1000\n")
        sc = make_scenario("hcca", [trace], tspec, sim_time_s=Fraction(3, 25))
        result = run_scenario(sc)
        # interval 1 starts with three queued frames but the grant holds two
        assert result.n_delivered == 4
        recs = records(result)
        assert [r.sequence for r in recs] == [0, 1, 2, 3]
        assert recs[2].rx_time_us < 80_000 < recs[3].rx_time_us
        assert recs[3].gen_time_us == 30_000

    def test_empty_queue_sends_no_record_but_grants_continue(self):
        trace = parse_trace("0 I 0 2700\n")
        result = run_scenario(make_scenario("hcca", [trace], TSPEC_54))
        assert result.n_delivered == 1
        assert len(grants_us(result)) == 5  # one per interval, 0.2 s / 40 ms
        assert result.n_generated == 1
        assert result.n_left_queued == 0


class TestAdaptiveTimeline:
    TSPEC = make_tspec(2700, 5400, 540_000, 54_000_000)

    def test_first_interval_falls_back_then_adapts(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("atxop", [trace], self.TSPEC))
        grants = grants_us(result)
        assert grants[0].basis is GrantBasis.REFERENCE_MEAN
        assert grants[0].duration_us == Fraction(4456, 3)   # 5400-byte budget
        for g in grants[1:]:
            assert g.basis is GrantBasis.PIGGYBACK_SIZE
            assert g.duration_us == Fraction(3256, 3)       # 2700-byte report

    def test_grant_tracks_reported_size_exactly(self):
        trace = parse_trace("0 I 0 2000\n1 P 40 1200\n2 B 80 600\n")
        tspec = make_tspec(1200, 2100, 240_000, 54_000_000)
        sc = make_scenario("atxop", [trace], tspec, sim_time_s=Fraction(3, 25))
        result = run_scenario(sc)
        o_one = Fraction(2056, 3)
        expect = [
            GrantBasis.REFERENCE_MEAN,
            GrantBasis.PIGGYBACK_SIZE,
            GrantBasis.PIGGYBACK_SIZE,
        ]
        grants = grants_us(result)
        assert [g.basis for g in grants] == expect
        assert grants[1].duration_us == Fraction(1200 * 8, 54) + o_one
        assert grants[2].duration_us == Fraction(600 * 8, 54) + o_one

    def test_report_looks_ahead_in_generation_order(self):
        # decode order in the file: the 1000-byte B frame is shown (and
        # generated) before the 1500-byte P frame listed ahead of it
        trace = parse_trace("0 I 0 2000\n1 P 80 1500\n2 B 40 1000\n")
        tspec = make_tspec(1500, 2100, 300_000, 54_000_000)
        sc = make_scenario("atxop", [trace], tspec, sim_time_s=Fraction(3, 25))
        result = run_scenario(sc)
        o_one = Fraction(2056, 3)
        assert [g.duration_us for g in grants_us(result)[1:]] == [
            Fraction(1000 * 8, 54) + o_one,
            Fraction(1500 * 8, 54) + o_one,
        ]

    def test_exhausted_stream_reports_end_and_falls_back(self):
        trace = parse_trace("0 I 0 2700\n")
        result = run_scenario(make_scenario("atxop", [trace], self.TSPEC))
        # after the only frame, every grant reverts to the mean-based size
        assert all(
            g.basis is GrantBasis.REFERENCE_MEAN for g in grants_us(result)
        )


class TestMultipollTimeline:
    TSPEC = make_tspec(2700, 5400, 540_000, 54_000_000)

    def test_first_station_transmits_right_after_multipoll(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("amtxop", [trace] * 2, self.TSPEC))
        st1 = [r for r in records(result) if r.aid == 1]
        # multi-poll 300 us at 2 Mb/s, then data with no interframe gap
        assert st1[0].rx_time_us == 300 + Fraction(1576, 3) + 2

    def test_second_station_backoff_spans_first_grant(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("amtxop", [trace] * 2, self.TSPEC))
        st2 = [r for r in records(result) if r.aid == 2]
        # interval 0: fallback grant 800 + (2056/3 - 264) for 5400 bytes
        g_fb = 800 + Fraction(1264, 3)
        assert st2[0].rx_time_us == 300 + g_fb + Fraction(1576, 3) + 2

    def test_steady_state_grants_shed_poll_overhead(self):
        trace = const_trace(5, 2700)
        result = run_scenario(make_scenario("amtxop", [trace] * 2, self.TSPEC))
        steady = [g for g in grants_us(result) if g.si_index >= 1]
        assert {g.duration_us for g in steady} == {400 + Fraction(1264, 3)}
        assert {g.basis for g in steady} == {GrantBasis.PIGGYBACK_SIZE}

    @pytest.mark.parametrize("scheduler", ("atxop", "amtxop"))
    def test_a_deferral_takes_the_later_reports_only_under_multipoll(self, scheduler):
        """Station 1's 29 000-byte frame fills interval 2 at 6 Mb/s, so
        station 2 is deferred and station 3 after it. Polled one by one,
        station 3 keeps its report for interval 3; the multi-poll frame of
        interval 2 took it, so it falls back to the mean-based grant."""
        big = parse_trace("\n".join(f"{i} P {40 * i} {29_000 if i == 2 else 1000}" for i in range(6)))
        tspec = make_tspec(1000, 1100, 200_000, 6_000_000)
        result = run_scenario(make_scenario(scheduler, [big] + [const_trace(6, 1000)] * 2, tspec,
                                            data_rate=6_000_000))
        grants = by_si(result)
        assert [g.aid for g in grants[2]] == [1] and result.n_deferred_slots == 1
        mean, piggyback = GrantBasis.REFERENCE_MEAN, GrantBasis.PIGGYBACK_SIZE
        kept = piggyback if scheduler == "atxop" else mean
        assert [g.basis for g in grants[3]] == [piggyback, mean, kept]


class TestSteadyStateMeans:
    """Hand-computed steady-state means on the validation PHY (payload at
    36 Mb/s, control at 1 Mb/s), three stations, constant 3820-byte frames,
    first interval excluded."""

    TSPEC = make_tspec(3820, 7500, 764_000, 36_000_000)

    def run(self, scheduler):
        trace = const_trace(50, 3820)
        sc = make_scenario(
            scheduler, [trace] * 3, self.TSPEC,
            data_rate=36_000_000,
            control_rate=1_000_000,
            sim_time_s=Fraction(2),
            warmup_s=Fraction(1, 25),
        )
        return run_scenario(sc)

    def test_reference_mean(self):
        result = self.run("hcca")
        assert mean_delay_ms(measured_records(result)) == Fraction(9089, 2250)

    def test_adaptive_mean(self):
        result = self.run("atxop")
        assert mean_delay_ms(measured_records(result)) == Fraction(7249, 2250)

    def test_multipoll_mean(self):
        result = self.run("amtxop")
        assert mean_delay_ms(measured_records(result)) == Fraction(2617, 900)

    def test_scheduler_ordering(self):
        means = {s: mean_delay_ms(measured_records(self.run(s))) for s in ("hcca", "atxop", "amtxop")}
        assert means["amtxop"] < means["atxop"] < means["hcca"]

    def test_model_tracks_simulation_within_ten_percent(self):
        trace = const_trace(50, 3820)
        inputs = analytic_inputs(
            trace, 3, self.TSPEC, Fraction(1, 25), PROFILE_11G,
            control_rate=1_000_000, m_intervals=48,
        )
        for scheduler in ("hcca", "atxop", "amtxop"):
            sim_mean_us = mean_delay_ms(measured_records(self.run(scheduler))) * 1000
            model_mean_us = aggregate_delay(scheduler, inputs) / 3
            assert abs(model_mean_us - sim_mean_us) / sim_mean_us < Fraction(1, 10)
            assert model_mean_us < sim_mean_us  # model omits header time


class TestAdmissionInEngine:
    def test_11b_fills_to_five_stations(self):
        tspec = make_tspec(3800, 7500, 770_000, 11_000_000)
        trace = const_trace(3, 3800)
        sc = make_scenario(
            "hcca", [trace] * 6, tspec,
            profile=PROFILE_11B, sim_time_s=Fraction(1, 10),
        )
        result = run_scenario(sc)
        assert result.n_offered == 6
        assert result.n_admitted == 5
        assert result.admitted_aids == (1, 2, 3, 4, 5)
        assert result.rejected_aids == (6,)
        # rejected stream generates nothing
        assert result.n_generated == 5 * 3

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_polling_follows_admission_not_aid(self, scheduler):
        # aid 2 starts at 0 and aid 1 at 0.1 s: every interval polls aid 2 first
        trace = const_trace(10, 2700)
        sc = replace(
            make_scenario(scheduler, [trace], TSPEC_54, sim_time_s=Fraction(2, 5)),
            stations=(StationSpec(aid=1, trace=trace, tspec=TSPEC_54, start_s=Fraction(1, 10)),
                      StationSpec(aid=2, trace=trace, tspec=TSPEC_54)),
        )
        per_si = by_si(run_scenario(sc))
        assert [[g.aid for g in per_si[k]] for k in sorted(per_si)] == [[2]] * 3 + [[2, 1]] * 7

    def test_late_starter_joins_running_schedule(self):
        trace = const_trace(5, 2700)
        stations = (
            StationSpec(aid=1, trace=trace, tspec=TSPEC_54),
            StationSpec(aid=2, trace=trace, tspec=TSPEC_54, start_s=Fraction(2, 25)),
        )
        sc = make_scenario("hcca", stations=stations)
        result = run_scenario(sc)
        st2 = [r for r in records(result) if r.aid == 2]
        assert st2[0].gen_time_us == 80_000
        assert st2[0].rx_time_us == 80_000 + Fraction(3256, 3) + Fraction(2404, 3)

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_tighter_msi_charges_grants_at_the_new_si(self, scheduler):
        # four streams at SI 120 ms, then a fifth shrinks the SI to 40 ms;
        # every stream is charged 77370/11 us at 40 ms, 5 of them 35168.2 us
        # against a 39600 us budget (the stale 120-ms overheads would charge
        # 39841.6 us and turn the fifth away)
        trace = const_trace(20, 3800)
        stations = tuple(
            StationSpec(
                aid=i + 1, trace=trace, tspec=make_tspec(D="0.12", msi="0.04" if i == 4 else "0.12"),
                start_s=Fraction(1, 2) if i == 4 else Fraction(0),
            )
            for i in range(5)
        )
        sc = make_scenario(scheduler, stations=stations, profile=PROFILE_11B, sim_time_s=Fraction(7, 10),
                           t_cp_s=Fraction(12, 10_000))
        result = run_scenario(sc)
        assert result.admitted_aids == (1, 2, 3, 4, 5)
        assert result.si_s == Fraction(1, 25)
        if scheduler == "hcca":
            # the run ends inside the last interval, which issues no grant
            # past the end; the one before it is granted in full
            last = max(g.si_index for g in grants_us(result)) - 1
            grants = [g.duration_us for g in grants_us(result) if g.si_index == last]
            assert grants == [Fraction(77370, 11)] * 5

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_rejected_tighter_msi_leaves_si_and_grants(self, scheduler):
        # five streams at SI 120 ms charge 5 * 8202 us; a sixth at MSI 40 ms
        # would need 6 * 7033.6 us of a 40 ms SI and is turned away, so the
        # SI and every grant stay as they were
        trace = const_trace(40, 3800)
        stations = tuple(
            StationSpec(
                aid=i + 1, trace=trace, tspec=make_tspec(D="0.12", msi="0.04" if i == 5 else "0.12"),
                start_s=Fraction(1, 2) if i == 5 else Fraction(0),
            )
            for i in range(6)
        )
        sc = make_scenario(scheduler, stations=stations, profile=PROFILE_11B, sim_time_s=Fraction(1))
        result = run_scenario(sc)
        assert result.rejected_aids == (6,)
        assert result.si_s == Fraction(3, 25)
        per_si = {}
        for g in grants_us(result):
            per_si.setdefault(g.si_index, []).append((g.aid, g.duration_us))
        # SI 0 is the reports' fallback under atxop/amtxop; the sixth stream
        # is offered at 500 ms, inside SI 4
        before, after = per_si[3], [per_si[i] for i in range(5, max(per_si) + 1)]
        assert after
        # the run ends inside the last interval, which issues no grant past the end
        assert all(gs == before for gs in after[:-1])
        assert after[-1] == before[:len(after[-1])]

    # two contracts at one MSI, so at a given SI the stations' reference
    # grants differ only by contract
    BIG = Tspec(3800, 7500, Fraction(770_000), Fraction("0.08"), 11_000_000, Fraction("0.04"))
    SMALL = Tspec(770, 1100, Fraction(150_000), Fraction("0.08"), 11_000_000, Fraction("0.04"))

    def mixed(self, scheduler, n, **kw):
        """n 11b streams from tick 0, BIG at the odd AIDs and SMALL at the
        even ones."""
        big, small = const_trace(30, 3800), const_trace(30, 770)
        stations = tuple(
            StationSpec(aid=aid, trace=big, tspec=self.BIG) if aid % 2
            else StationSpec(aid=aid, trace=small, tspec=self.SMALL)
            for aid in range(1, n + 1)
        )
        return run_scenario(make_scenario(scheduler, stations=stations, profile=PROFILE_11B, **kw))

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_mixed_contracts_are_charged_and_granted_their_own(self, scheduler):
        # at SI 40 ms BIG is charged 77370/11 us and SMALL 18944/11 us: the
        # ninth and eleventh streams would overrun the 40 ms budget, the
        # smaller tenth and twelfth still fit (423144/11 us in all)
        result = self.mixed(scheduler, 12, sim_time_s=Fraction(1, 5))
        assert result.admitted_aids == (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)
        assert result.rejected_aids == (9, 11)
        assert result.si_s == Fraction(1, 25)
        # SI 0 holds no report yet: every grant is its contract's reference
        # grant, less the 336 us poll that the multi-poll sheds
        shed = 336 if scheduler == "amtxop" else 0
        big, small = Fraction(77370, 11) - shed, Fraction(18944, 11) - shed
        assert [(g.aid, g.duration_us) for g in grants_us(result) if g.si_index == 0] == [
            (aid, big if aid % 2 else small) for aid in result.admitted_aids
        ]

    def test_mixed_contracts_are_re_planned_at_a_tier_change(self):
        # (80 - 30) ft at 20 m/s takes 0.76 s: from the interval start at
        # 0.8 s on, every contract is granted at 5.5 Mb/s
        mob = Mobility(
            tiers=((80, 11_000_000), (1000, 5_500_000)), speed_mps=Fraction(20),
            start_s=Fraction(0), initial_distance_ft=Fraction(30),
        )
        result = self.mixed("hcca", 4, sim_time_s=Fraction(1), mobility=mob)
        assert result.admitted_aids == (1, 2, 3, 4)
        assert result.tier_changes == ((0, 11_000_000), (800_000 * result.K, 5_500_000))
        grants = grants_us(result)
        assert {(g.aid % 2, g.start_us >= 800_000, g.duration_us) for g in grants} == {
            (1, False, Fraction(77370, 11)), (0, False, Fraction(18944, 11)),
            (1, True, Fraction(138746, 11)), (0, True, Fraction(28032, 11)),
        }

    @given(sc=scenarios(scheduler="hcca", mobility=None, stop_ms=None, sim_ms=1000))
    @settings(derandomize=True, max_examples=25, database=None, deadline=None)
    def test_admitted_grants_fit_the_budget(self, sc):
        """Admission charges what the engine grants: once the last stream
        is in, no SI grants more than the contention-free share of it."""
        result = drawn_run(sc)
        bi, t_cp = sc.beacon_interval_s, sc.t_cp_s
        last_us = max(s.start_s for s in sc.stations if s.aid in result.admitted_aids) * 1_000_000
        per_si = by_si(result)
        budget = (bi - t_cp) / bi * result.si_s * 1_000_000
        # under hcca an SI's first grant starts with the SI
        after = [gs for gs in per_si.values() if gs[0].start_us >= last_us]
        assert after
        assert all(sum(g.duration_us for g in gs) <= budget for gs in after)


class TestLossAndDeterminism:
    def test_conservation_under_loss(self):
        trace = const_trace(50, 2700)
        for scheduler in ("hcca", "atxop", "amtxop"):
            sc = make_scenario(
                scheduler, [trace] * 3, TSPEC_54,
                per=0.4, seed=11, sim_time_s=Fraction(2),
            )
            result = run_scenario(sc)
            assert result.n_generated == result.n_delivered + result.n_lost + result.n_left_queued
            assert result.n_lost > 0
            assert result.n_delivered > 0

    def test_identical_runs_are_bit_identical(self):
        trace = const_trace(50, 2700)
        sc = make_scenario("atxop", [trace] * 3, TSPEC_54, per=0.3, seed=7, sim_time_s=Fraction(2))
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.deliveries == b.deliveries
        assert a.grants == b.grants
        assert a.n_lost == b.n_lost

    def test_seed_changes_loss_pattern(self):
        trace = const_trace(50, 2700)
        base = dict(per=0.3, sim_time_s=Fraction(2))
        a = run_scenario(make_scenario("hcca", [trace] * 3, TSPEC_54, seed=1, **base))
        b = run_scenario(make_scenario("hcca", [trace] * 3, TSPEC_54, seed=2, **base))
        assert a.deliveries != b.deliveries

    def test_lost_report_forces_fallback_next_interval(self):
        trace = const_trace(50, 2700)
        tspec = make_tspec(2700, 5400, 540_000, 54_000_000)
        sc = make_scenario("atxop", [trace], tspec, per=0.5, seed=3, sim_time_s=Fraction(2))
        result = run_scenario(sc)
        grants, recs = grants_us(result), records(result)
        lost_si = set()
        for g in grants:
            delivered = any(
                r.sequence == g.si_index and r.aid == g.aid for r in recs
            )
            if not delivered:
                lost_si.add(g.si_index)
        fallbacks = {g.si_index for g in grants if g.basis is GrantBasis.REFERENCE_MEAN}
        # one frame per interval: an undelivered interval k forces a
        # mean-based grant in k+1 (report went down with the frame)
        for k in lost_si:
            if k + 1 in {g.si_index for g in grants}:
                assert k + 1 in fallbacks

    def test_invalid_per_rejected(self):
        with pytest.raises(ConfigError):
            make_scenario("hcca", [const_trace(5, 2700)], TSPEC_54, per=1.0)

    # VBR streams at up to 20% loss, 2 to 4 of them, on any walk
    @given(sc=scenarios(traffic="vbr", n_stations=st.integers(2, 4), per=st.floats(0, 0.2)))
    @settings(derandomize=True, max_examples=40, database=None, deadline=None)
    def test_frames_are_conserved(self, sc):
        """Every generated frame is delivered, lost or left queued."""
        result = drawn_run(sc)
        assert result.n_generated == result.n_delivered + result.n_lost + result.n_left_queued

    @given(sc=scenarios())
    @settings(derandomize=True, max_examples=40, database=None, deadline=None)
    def test_report_equals_fraction_oracle(self, sc):
        """Every delivery's rx tick is at or after its generation tick, and
        report() divides its tick sums into exactly the rationals that
        summing the records and grants in microseconds gives. The warmup
        falls a few ms into an interval, where grants straddle it."""
        result = drawn_run(sc)
        assert all(rx >= gen for _aid, _seq, _size, gen, rx in entries(result.deliveries))

        report = result.report()
        n, delay_t, payload, grant_t = result.measured
        k, duration = result.K, sc.sim_time_s - sc.warmup_s
        delay, throughput, txop = oracle_report(result)
        assert n == report.n_delivered == len(measured_records(result))
        assert report.n_lost == result.n_lost_measured
        if n:
            assert Fraction(delay_t, n * k * 1000) == delay
            assert report.mean_delay_ms == float(delay)
        else:
            assert math.isnan(delay) and math.isnan(report.mean_delay_ms)
        assert 8 * payload / duration == throughput
        assert Fraction(grant_t, k * US_PER_S) == txop
        assert (report.throughput_bps, report.aggregate_txop_s) == (float(throughput), float(txop))


def phy_rate_for_distance(distance, tiers):
    """Rate of the innermost tier containing the distance, None when the
    group is out of range entirely: the oracle of the engine's tier lookup."""
    for max_ft, rate in tiers:
        if distance <= max_ft:
            return rate
    return None


def group_distance(mob, t_s):
    """The group's distance in feet at t_s seconds (speed in m/s)."""
    return mob.initial_distance_ft + mob.speed_mps * M_TO_FT * max(0, t_s - mob.start_s)


class TestMobility:

    def test_rate_lookup(self):
        assert phy_rate_for_distance(0, TIERS) == 54_000_000
        assert phy_rate_for_distance(80, TIERS) == 54_000_000
        assert phy_rate_for_distance(Fraction(801, 10), TIERS) == 36_000_000
        assert phy_rate_for_distance(325, TIERS) == 6_000_000
        assert phy_rate_for_distance(326, TIERS) is None

    def test_tier_changes_and_disassociation(self):
        trace = const_trace(560, 2700)
        mob = Mobility(
            tiers=TIERS,
            speed_mps=Fraction(5),
            start_s=Fraction(2),
            initial_distance_ft=Fraction(30),
        )
        sc = make_scenario(
            "hcca", [trace] * 3, TSPEC_54,
            sim_time_s=Fraction(21), mobility=mob,
        )
        result = run_scenario(sc)
        expect = (
            (0, 54_000_000),
            (5_080_000 * result.K, 36_000_000),
            (12_400_000 * result.K, 18_000_000),
            (15_440_000 * result.K, 6_000_000),
            (20_000_000 * result.K, None),
        )
        assert result.tier_changes == expect
        # no service once out of range
        assert max(g.start_us for g in grants_us(result)) < 20_000_000

    def test_grants_resize_with_tier(self):
        trace = const_trace(560, 2700)
        mob = Mobility(
            tiers=TIERS, speed_mps=Fraction(5),
            start_s=Fraction(2), initial_distance_ft=Fraction(30),
        )
        sc = make_scenario("hcca", [trace], TSPEC_54, sim_time_s=Fraction(21), mobility=mob)
        result = run_scenario(sc)
        dur_at = {}
        for g in grants_us(result):
            dur_at[g.start_us] = g.duration_us
        def grant_near(t_s):
            ticks = [t for t in dur_at if t >= t_s * 10**6]
            return dur_at[min(ticks)]
        # 54 Mb/s: 21600 bits / 54 + O; 36 Mb/s window after 5.08 s
        assert grant_near(0) == Fraction(3256, 3)
        assert grant_near(6) == Fraction(21600, 36) + 264 + 264 + 128 + 30 + 2
        assert grant_near(13) == Fraction(21600, 18) + 264 + 264 + 136 + 30 + 2
        assert grant_near(16) == Fraction(21600, 6) + 264 + 264 + 168 + 30 + 2

    def test_overrun_guard_defers_lowest_priority_stations(self):
        trace = const_trace(210, 2700)
        mob = Mobility(
            tiers=((80, 54_000_000), (100_000, 1_000_000)),
            speed_mps=Fraction(5), start_s=Fraction(0),
            initial_distance_ft=Fraction(30),
        )
        sc = make_scenario(
            "hcca", [trace] * 5, TSPEC_54, sim_time_s=Fraction(8), mobility=mob,
        )
        result = run_scenario(sc)
        assert result.n_deferred_slots > 0
        # after the rate drop only one 22568-us grant fits per 40-ms interval
        late = [g for g in grants_us(result) if g.start_us > 4_000_000]
        per_si = {}
        for g in late:
            per_si.setdefault(g.si_index, []).append(g)
        assert all(len(v) == 1 for v in per_si.values())
        assert result.n_generated == result.n_delivered + result.n_lost + result.n_left_queued

    @staticmethod
    def group_rates(mob, si_s, n_si):
        """The group's rate at each SI start k*si_s, from its closed-form
        distance (feet; speed in m/s)."""
        return [phy_rate_for_distance(group_distance(mob, k * si_s), mob.tiers) for k in range(n_si)]

    @given(sc=scenarios(scheduler="hcca", profile=PROFILE_11G, control_rate=2_000_000, msi="0.04",
                        traffic="small", n_stations=st.integers(2, 3), start_ms=0, stop_ms=None,
                        sim_ms=1200, mobility=group_walks()))
    @settings(derandomize=True, max_examples=60, database=None, deadline=None)
    def test_group_walk_matches_closed_form(self, sc):
        """The group's rate is its closed-form distance's tier at every SI
        start: tier changes are logged when that rate changes, every grant
        is the reference grant at that rate, and out of range nobody is
        served; a group that starts out of range admits nobody."""
        si_s, n_si = Fraction(1, 25), 30
        mob, n_stations = sc.mobility, len(sc.stations)
        result = drawn_run(sc)
        rates = self.group_rates(mob, si_s, n_si)
        if rates[0] is None:
            assert result.admitted_aids == () and result.si_s is None
            assert not result.grants and result.tier_changes == ()
            return
        assert result.si_s == si_s and result.n_service_intervals == n_si

        changes, last = [], None   # nothing to log before the first rate
        for k, rate in enumerate(rates):
            if rate != last:
                changes.append((k * si_s * 1_000_000 * result.K, rate))
                last = rate
        assert result.tier_changes == tuple(changes)

        # payload and MAC header at the rate; poll and ACK at 2 Mb/s, PLCP,
        # three SIFS and the propagation delay
        for g in grants_us(result):
            assert g.duration_us == Fraction((200 + 36) * 8_000_000, rates[g.si_index]) + 680
        served = {(g.si_index, g.aid) for g in grants_us(result)}
        assert served == {
            (k, aid) for k, rate in enumerate(rates) if rate is not None
            for aid in range(1, n_stations + 1)
        }

    def test_stream_starting_out_of_range_is_rejected(self):
        """A group that is out of range never serves a stream, so admission
        turns it away and it generates nothing."""
        mob = Mobility(
            tiers=((80, 54_000_000),), speed_mps=Fraction(0),
            start_s=Fraction(0), initial_distance_ft=Fraction(100),
        )
        tspec = make_tspec(200, 200, 40_000, 54_000_000)
        sc = make_scenario(
            "hcca", [const_trace(30, 200)] * 3, tspec,
            sim_time_s=Fraction(6, 5), mobility=mob, log_events=True,
        )
        result = run_scenario(sc)
        assert result.admitted_aids == ()
        assert result.rejected_aids == (1, 2, 3)
        assert result.n_generated == 0
        assert not result.grants and result.tier_changes == ()
        assert [line for line in result.event_log if "ADMIT" in line] == [
            f"t=0.000000 ADMIT-REJECT aid={aid}" for aid in (1, 2, 3)
        ]

    def test_stream_starting_after_the_group_left_range_is_rejected(self):
        """The group walks past its one tier 0.76 s in; streams that start
        at 2 s, before any interval has run, are turned away on where the
        group is then, and the tier is still logged only at tick 0."""
        mob = Mobility(
            tiers=((80, 54_000_000),), speed_mps=Fraction(20),
            start_s=Fraction(0), initial_distance_ft=Fraction(30),
        )
        tspec = make_tspec(200, 200, 40_000, 54_000_000)
        stations = tuple(
            StationSpec(aid=aid, trace=const_trace(30, 200), tspec=tspec, start_s=Fraction(2))
            for aid in (1, 2, 3)
        )
        sc = make_scenario("hcca", stations=stations, sim_time_s=Fraction(3), mobility=mob,
                           log_events=True)
        result = run_scenario(sc)
        assert result.admitted_aids == ()
        assert result.rejected_aids == (1, 2, 3)
        assert result.n_generated == 0 and result.n_left_queued == 0
        assert not result.grants and result.n_service_intervals == 0
        assert result.tier_changes == ((0, 54_000_000),)
        assert [line for line in result.event_log if "ADMIT" in line] == [
            f"t=2000000.000000 ADMIT-REJECT aid={aid}" for aid in (1, 2, 3)
        ]

    def test_streams_around_the_last_crossing_tick(self):
        """A stream starting one tick before the group passes its last tier
        is admitted and one starting at that tick is rejected, although
        neither starts at an interval start."""
        mob = Mobility(
            tiers=((80, 54_000_000),), speed_mps=Fraction(20),
            start_s=Fraction(0), initial_distance_ft=Fraction(30),
        )
        K = 27   # 54 Mb/s data and 2 Mb/s control
        per_s = K * US_PER_S
        # past 80 ft strictly after 50 ft / (20 m/s), about 0.762 s in
        tick = math.floor(Fraction(50) / (20 * M_TO_FT) * per_s) + 1
        assert phy_rate_for_distance(group_distance(mob, Fraction(tick - 1, per_s)), mob.tiers) is not None
        assert phy_rate_for_distance(group_distance(mob, Fraction(tick, per_s)), mob.tiers) is None

        tspec = make_tspec(200, 200, 40_000, 54_000_000)
        stations = tuple(
            StationSpec(aid=aid, trace=const_trace(30, 200), tspec=tspec, start_s=Fraction(t, per_s))
            for aid, t in ((1, 0), (2, tick - 1), (3, tick))
        )
        sc = make_scenario("hcca", stations=stations, sim_time_s=Fraction(1), mobility=mob)
        result = run_scenario(sc)
        assert result.K == K
        assert tick % (40_000 * K) not in (0, 1)   # neither start is an interval start
        assert result.admitted_aids == (1, 2)
        assert result.rejected_aids == (3,)

    def test_mobility_validation(self):
        with pytest.raises(ConfigError):
            Mobility(tiers=(), speed_mps=1, start_s=0, initial_distance_ft=0)
        with pytest.raises(ConfigError):
            Mobility(tiers=((200, 1), (100, 2)), speed_mps=1, start_s=0, initial_distance_ft=0)


class TestEdgeTicks:
    """What happens on one tick: stream starts, then stream stops, then
    frames, then the interval start, then the slot."""

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_frame_at_slot_start_is_sent_in_that_slot(self, scheduler):
        trace = const_trace(5, 2700)
        probe = run_scenario(make_scenario(scheduler, [trace] * 2, TSPEC_54))
        # station 2's first slot starts after station 1's (and the multi-poll)
        slot = next(g for g in grants_us(probe) if g.aid == 2)
        assert slot.si_index == 0 and slot.start_us > 0
        # station 2's frames land on its slot starts instead of the interval starts
        late = parse_trace("\n".join(
            f"{i} {'I' if i == 0 else 'P'} {slot.start_us / 1000 + 40 * i} 2700" for i in range(5)
        ))
        stations = (StationSpec(aid=1, trace=trace, tspec=TSPEC_54),
                    StationSpec(aid=2, trace=late, tspec=TSPEC_54))
        result = run_scenario(replace(probe.scenario, stations=stations))
        assert next(g for g in grants_us(result) if g.aid == 2) == slot
        first = next(r for r in records(result) if r.aid == 2)
        assert first.sequence == 0 and first.gen_time_us == slot.start_us
        assert first.rx_time_us < slot.start_us + slot.duration_us

    def test_frame_at_stop_tick_is_not_generated(self):
        trace = const_trace(5, 2700)
        sc = make_scenario("hcca", [trace], TSPEC_54)
        stopped = StationSpec(aid=1, trace=trace, tspec=TSPEC_54, stop_s=Fraction(2, 25))
        result = run_scenario(replace(sc, stations=(stopped,)))
        # frames at 0 and 40 ms; the one at the 80 ms stop is not generated
        assert result.n_generated == 2
        assert [r.sequence for r in records(result)] == [0, 1]

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_stream_starting_at_interval_start_is_granted_in_it(self, scheduler):
        trace = const_trace(5, 2700)
        sc = make_scenario(scheduler, [trace], TSPEC_54)
        stations = (StationSpec(aid=1, trace=trace, tspec=TSPEC_54),
                    StationSpec(aid=2, trace=trace, tspec=TSPEC_54, start_s=Fraction(1, 25)))
        result = run_scenario(replace(sc, stations=stations))
        assert [g.si_index for g in grants_us(result) if g.aid == 2] == [1, 2, 3, 4]

    def test_beacon_on_a_tick_before_the_end_is_counted(self):
        trace = const_trace(3, 2700)
        result = run_scenario(make_scenario("hcca", [trace], TSPEC_54, sim_time_s=Fraction(1, 4)))
        assert result.n_beacons == 3  # 0, 0.12 and 0.24 s within 0.25 s

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_grants_are_sized_before_any_slot(self, scheduler):
        """A stream start between two slots of an interval changes neither
        that interval's grants nor its slots: they were all sized at the
        interval start. Each stream sends its one frame in interval 0 and
        holds no report from then on, so every scheduler grants the
        mean-based TXOP, which depends on the SI."""
        trace = const_trace(1, 3800)
        stations = tuple(StationSpec(aid=i + 1, trace=trace, tspec=make_tspec(D="0.12", msi="0.12"))
                         for i in range(3)) + (
            StationSpec(aid=4, trace=trace, tspec=make_tspec(D="0.12"), start_s=Fraction(37, 100)),
        )
        sc = make_scenario(scheduler, stations=stations, profile=PROFILE_11B, sim_time_s=Fraction(16, 25))
        result = run_scenario(sc)
        K = result.K
        assert result.admitted_aids == (1, 2, 3, 4)
        assert result.si_s == Fraction(1, 25)
        # the multi-poll replaces each slot's poll, which is 336 us at 2 Mb/s on 11b
        shed = 336 * K if scheduler == "amtxop" else 0
        at_120_ms, at_40_ms = 151_022 - shed, 77_370 - shed    # 13.729 and 7.034 ms at K = 11
        assert K == 11

        def lead(n):   # from the interval start to its first slot
            return int(airtime_multipoll(n, PROFILE_11B, 2_000_000) * K) if shed else 0

        per_si = {}
        for k, aid, start, dur, _basis in entries(result.grants):
            per_si.setdefault(k, []).append((aid, start, dur))
        # the interval at 360 ms: aid 4 starts at 370 ms, inside aid 1's slot
        si_360 = 360_000 * K
        assert per_si[3] == [(1, si_360 + lead(3), at_120_ms),
                             (2, si_360 + lead(3) + at_120_ms, at_120_ms),
                             (3, si_360 + lead(3) + 2 * at_120_ms, at_120_ms)]
        assert per_si[3][0][1] < 370_000 * K < per_si[3][1][1]
        # from 480 ms on, intervals of 40 ms grant all four streams at SI 40 ms
        assert max(per_si) == 7
        for k in range(4, 8):
            si_start = (480_000 + 40_000 * (k - 4)) * K
            assert per_si[k] == [(aid, si_start + lead(4) + i * at_40_ms, at_40_ms)
                                 for i, aid in enumerate((1, 2, 3, 4))]

    def test_stream_events_are_looked_up_only_when_one_is_due(self, monkeypatch):
        """Stream 1 stops at 40.5 ms, after the first slot of interval 1
        starts: its second slot handles the stop, and neither its last two
        slots nor later interval starts look the events up again. A run
        looks them up once per tick it handles events at, once as the
        interval loop starts and once at the end of the run."""
        calls = []
        streams_to = engine._Sim._streams_to

        def counting(sim, tick):
            calls.append(tick)
            return streams_to(sim, tick)

        monkeypatch.setattr(engine._Sim, "_streams_to", counting)
        trace = const_trace(5, 2700)
        stations = tuple(StationSpec(aid=aid, trace=trace, tspec=TSPEC_54,
                                     stop_s=Fraction(81, 2000) if aid == 1 else None) for aid in (1, 2, 3, 4))
        result = run_scenario(make_scenario("hcca", stations=stations))
        slots = [whole(g.start_us * result.K) for g in grants_us(result) if g.si_index == 1]
        assert len(slots) == 4 and slots[0] < 40_500 * result.K < slots[1]
        assert calls == [0, 0, slots[1], 200_000 * result.K]


class TestWindowQueue:
    """A station's queue is the trace frames from its head up to the next
    to be generated; generation follows the trace's display times."""

    # half-millisecond display times, 1 to 4 streams, no walk
    @given(sc=scenarios(traffic="half-ms", n_stations=st.integers(1, 4), mobility=None))
    @settings(derandomize=True, max_examples=40, database=None, deadline=None)
    def test_window_generation_and_delivery_order(self, sc):
        """check_run's window rules: per station, delivered sequence numbers
        strictly increase, each delivery's generation tick is its stream
        start plus its display time, and frames are generated exactly before
        min(stop, end)."""
        drawn_run(sc)

    def test_frames_at_the_stop_and_end_ticks_are_not_generated(self):
        sc = make_scenario("hcca", [const_trace(3, 2700)] * 2, TSPEC_54)
        K = run_scenario(sc).K
        tick_ms = Fraction(1, 1000 * K)
        # frames one tick before and exactly on 80 ms (the stop of station
        # 1) and 200 ms (the end of the run)
        times = [0, 40, 80 - tick_ms, 80, 120, 160, 200 - tick_ms, 200, 240]
        trace = parse_trace("\n".join(f"{i} P {t} 1000" for i, t in enumerate(times)))
        stations = (StationSpec(aid=1, trace=trace, tspec=TSPEC_54, stop_s=Fraction(2, 25)),
                    StationSpec(aid=2, trace=trace, tspec=TSPEC_54))
        result = run_scenario(replace(sc, stations=stations))
        assert result.K == K
        assert result.n_generated == 3 + 7
        check_run(result)


class TestDecimalDisplayTimes:
    """Display times in decimal milliseconds become generation ticks."""

    TSPEC = make_tspec(500, 500, 300_000, 54_000_000)   # three 500-byte MSDUs per SI

    def test_half_millisecond_grid_delivers_in_display_order(self):
        # decode order in the file, display times on a 0.5 ms grid
        trace = parse_trace("0 I 0 500\n1 P 20.5 500\n2 B 10.5 500\n3 P 30 500\n")
        result = run_scenario(make_scenario("hcca", [trace], self.TSPEC, sim_time_s=Fraction(3, 25)))
        assert result.n_generated == result.n_delivered == 4
        recs = records(result)
        assert [r.sequence for r in recs] == [0, 1, 2, 3]
        assert [r.gen_time_us for r in recs] == [0, 10_500, 20_500, 30_000]
        # the three frames after the first wait for the 40 ms interval start
        rx = [r.rx_time_us for r in recs]
        assert rx[0] < 40_000 < rx[1] < rx[2] < rx[3] < 80_000

    def test_display_time_off_the_tick_grid_is_rejected(self):
        # 40.0001 ms is 400001/10 us, not a whole number of 1/27 us ticks
        trace = parse_trace("0 I 0 500\n1 P 40.0001 500\n")
        sc = make_scenario("hcca", [trace], self.TSPEC, sim_time_s=Fraction(3, 25))
        with pytest.raises(ConfigError, match=r"duration 400001/10 us is off the 1/27 us tick grid"):
            run_scenario(sc)

    def test_off_grid_display_time_past_the_run_is_rejected_up_front(self):
        # the run ends at 120 ms and never reaches the one off-grid frame, 200.0001 ms
        trace = parse_trace("0 I 0 500\n1 P 40 500\n2 P 160 500\n3 P 200.0001 500\n")
        sc = make_scenario("hcca", [trace], self.TSPEC, sim_time_s=Fraction(3, 25))
        with pytest.raises(ConfigError, match=r"duration 2000001/10 us is off the 1/27 us tick grid"):
            run_scenario(sc)


class TestRunResultWindow:
    def test_warmup_filters_records_and_grants(self):
        trace = const_trace(5, 2700)
        sc = make_scenario("hcca", [trace], TSPEC_54, warmup_s=Fraction(2, 25))
        result = run_scenario(sc)
        assert result.n_delivered == 5
        measured = measured_records(result)
        assert [r.sequence for r in measured] == [2, 3, 4]
        assert result.warmup_tick == 80_000 * result.K
        assert all(g.start_us >= 80_000 for g in measured_grants(result))
        report = result.report()
        assert report.n_delivered == 3
        assert report.throughput_bps == pytest.approx(3 * 2700 * 8 / 0.12)

    def test_measured_sums_straddle_the_warmup(self):
        """Frames arrive every 10 ms and a grant holds two, so frames made
        before the 80 ms warmup are delivered after it, or lost at 30%
        loss, and a grant starts exactly at the warmup tick. The measured
        sums and losses are those the records give from the warmup on."""
        tspec = make_tspec(1000, 1000, 400_000, 54_000_000)
        trace = const_trace(16, 1000, interval_ms=10)
        result = run_scenario(make_scenario("hcca", [trace], tspec, sim_time_s=Fraction(2, 5),
                                            warmup_s=Fraction(2, 25), per=0.3, seed=0))
        w, K = result.warmup_tick, result.K
        assert w in result.grants[2::5]
        assert any(gen < w <= rx for *_, gen, rx in entries(result.deliveries))
        recs, grants = measured_records(result), measured_grants(result)
        assert result.measured == (
            len(recs), whole(K * sum(r.delay_us for r in recs)), sum(r.size_bytes for r in recs),
            whole(K * sum(g.duration_us for g in grants)),
        )
        # every frame left the queue, so a measured frame not delivered was lost
        assert result.n_left_queued == 0
        n_gen = sum(gen >= w for gen in generation_offsets(trace, K))
        assert 0 < result.n_lost_measured == n_gen - len(recs) < result.n_lost

    def test_event_log_opt_in(self):
        trace = const_trace(3, 2700)
        quiet = run_scenario(make_scenario("hcca", [trace], TSPEC_54))
        assert quiet.event_log == ()
        chatty = run_scenario(make_scenario("hcca", [trace], TSPEC_54, log_events=True))
        assert any("ADMIT" in line for line in chatty.event_log)
        assert any(line.startswith("t=0.000000") for line in chatty.event_log)

    def test_beacons_counted(self):
        trace = const_trace(3, 2700)
        result = run_scenario(make_scenario("hcca", [trace], TSPEC_54))
        assert result.n_beacons == 2  # 0 and 0.12 within 0.2 s

    def test_scenario_validation(self):
        trace = const_trace(3, 2700)
        with pytest.raises(ConfigError):
            make_scenario("edca", [trace], TSPEC_54)
        with pytest.raises(ConfigError):
            make_scenario("hcca", [trace], TSPEC_54, sim_time_s=0)
        with pytest.raises(ConfigError):
            make_scenario("hcca", [trace], TSPEC_54, warmup_s=Fraction(1, 5))
        with pytest.raises(ConfigError):
            make_scenario("hcca", stations=(StationSpec(aid=1, trace=trace, tspec=TSPEC_54),
                                            StationSpec(aid=1, trace=trace, tspec=TSPEC_54)))

    @pytest.mark.parametrize("field", ["control_rate", "data_rate"])
    @pytest.mark.parametrize("rate", [0, -2_000_000])
    def test_rates_must_be_positive(self, field, rate):
        """A data rate of 0 would run at the profile's rate, and a control
        rate of 0 would divide by zero."""
        with pytest.raises(ConfigError, match=f"{field} must be > 0"):
            make_scenario("hcca", [const_trace(3, 2700)], TSPEC_54, **{field: rate})

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, enabled):
        """A run suspends the cyclic collector and restores the caller's
        setting, also when the run raises."""
        good = make_scenario("hcca", [const_trace(3, 2700)], TSPEC_54)
        # 40.0001 ms is off the 1/27 us tick grid: _Sim.__init__ raises
        off_grid = replace(good, stations=(
            StationSpec(aid=1, trace=parse_trace("0 I 0 500\n1 P 40.0001 500\n"), tspec=TSPEC_54),))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run_scenario(good).n_delivered == 3
            assert gc.isenabled() is enabled
            with pytest.raises(ConfigError, match="tick grid"):
                run_scenario(off_grid)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_stream_must_stop_after_it_starts(self):
        """A stream that stops at or before its start would be admitted
        and charged but never served."""
        trace = const_trace(3, 2700)
        for start, stop in [(0, 0), (Fraction(1, 10), Fraction(1, 10)),
                            (Fraction(1, 5), Fraction(1, 10))]:
            with pytest.raises(ConfigError, match="stop_s"):
                StationSpec(aid=1, trace=trace, tspec=TSPEC_54, start_s=start, stop_s=stop)


class TestEntryConversion:
    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    def test_floats_run_as_their_decimal_fractions(self, scheduler):
        """Scenario, StationSpec, Mobility and Tspec read a float field as
        the decimal it prints as, once, where it enters; the code below
        them takes the values as given."""
        def build(number):
            tspec = Tspec(2700, 2700, number("540000"), number("0.08"), 54_000_000, number("0.04"))
            trace = const_trace(8, 2700)
            return Scenario(
                name="entry", scheduler=scheduler, profile=PROFILE_11G,
                stations=(StationSpec(aid=1, trace=trace, tspec=tspec),
                          StationSpec(aid=2, trace=trace, tspec=tspec, start_s=number("0.04"))),
                sim_time_s=number("0.2"), beacon_interval_s=number("0.12"), control_rate=2_000_000,
                mobility=Mobility(tiers=TIERS, speed_mps=number("1.5"), start_s=number("0"),
                                  initial_distance_ft=number("79.5")),
            )

        floats, fractions = build(float), build(Fraction)
        assert floats == fractions
        result = run_scenario(floats)
        assert [rate for _, rate in result.tier_changes] == [54_000_000, 36_000_000]
        assert result == run_scenario(fractions)
