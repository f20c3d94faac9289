import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hccasim import engine
from hccasim.engine import StationSpec, run_scenario
from hccasim.errors import ConfigError
from hccasim.hcca import GrantBasis, reference_overhead, txop_reference
from hccasim.phy import PROFILE_11B, PROFILE_11G, airtime_control, airtime_multipoll, exchange
from hccasim.traces import parse_trace

from conftest import by_si, const_trace, grants_us, make_scenario, make_tspec, records

# one MSDU exchange at 11 Mb/s behind its own 2 Mb/s poll: the report-sized
# grant for 0 bytes on 802.11b
O_ONE_11B = reference_overhead(1, exchange(PROFILE_11B, 2_000_000, 11_000_000))   # 10144/11


def run(*args, **kw):
    """The run of make_scenario(*args, **kw)."""
    return run_scenario(make_scenario(*args, **kw))


class TestAdaptiveGrant:
    def test_grant_tracks_reported_bytes(self):
        # every 800-byte frame reports the next: 800 bytes at 11 Mb/s
        result = run("atxop", [const_trace(5, 800)], make_tspec(), profile=PROFILE_11B)
        steady = grants_us(result)[1:]
        assert steady and {g.basis for g in steady} == {GrantBasis.PIGGYBACK_SIZE}
        for g in steady:
            assert g.duration_us == Fraction(6400 * 1_000_000, 11_000_000) + O_ONE_11B
            assert g.duration_us == Fraction(16544, 11)

    def test_no_clamp_above_tspec_maximum(self):
        # a 12000-byte frame above the 5400-byte TSPEC maximum is reported
        # and granted in full, and the grant carries it
        trace = parse_trace("0 I 0 2700\n1 P 40 12000\n2 P 80 2700\n")
        result = run("atxop", [trace], TSPEC_54, sim_time_s=Fraction(3, 25))
        big = grants_us(result)[1]
        assert big.basis is GrantBasis.PIGGYBACK_SIZE
        one = reference_overhead(1, exchange(PROFILE_11G, 2_000_000, 54_000_000))
        assert big.duration_us == Fraction(12000 * 8, 54) + one
        assert big.duration_us > REF_54
        assert (1, 12000) in {(r.sequence, r.size_bytes) for r in records(result)}

    def test_fallback_is_mean_based_grant(self):
        # the first interval has no report yet: two mean MSDUs at 11 Mb/s
        ts = make_tspec()
        result = run("atxop", [const_trace(5, 3800)], ts, profile=PROFILE_11B)
        first = grants_us(result)[0]
        assert first.basis is GrantBasis.REFERENCE_MEAN
        expect = txop_reference(ts, Fraction(1, 25), exchange(PROFILE_11B, 2_000_000, 11_000_000))
        assert first.duration_us == expect
        assert first.duration_us == Fraction(77370, 11)

    @given(size=st.integers(min_value=1, max_value=20_000))
    @settings(max_examples=30, deadline=None)
    def test_grant_linear_in_size(self, size):
        # after a small first frame, reports of size and size + 100 bytes
        # size the next two grants
        trace = parse_trace(f"0 I 0 100\n1 P 40 {size}\n2 P 80 {size + 100}\n")
        result = run("atxop", [trace], make_tspec(), profile=PROFILE_11B,
                     sim_time_s=Fraction(3, 25))
        g0, g1 = grants_us(result)[1:]
        assert g1.duration_us - g0.duration_us == Fraction(800 * 1_000_000, 11_000_000)


class TestReportRules:
    """The report the AP holds per station, read off `atxop` grants."""

    def test_report_sizes_one_grant_only(self):
        # one 2700-byte frame per interval, served in its own interval: a
        # grant is report-sized exactly when the previous interval's frame
        # arrived, so a report taken by one grant never sizes the next
        result = run("atxop", [const_trace(50, 2700)], TSPEC_54, per=0.5, seed=3,
                     sim_time_s=Fraction(2))
        delivered = {r.sequence for r in records(result)}
        grants = grants_us(result)
        bases = [g.basis for g in grants]
        assert [g.si_index for g in grants] == list(range(len(bases)))
        expect = [GrantBasis.REFERENCE_MEAN] + [
            GrantBasis.PIGGYBACK_SIZE if k in delivered else GrantBasis.REFERENCE_MEAN
            for k in range(len(bases) - 1)
        ]
        assert bases == expect
        # a report-sized grant whose frame was lost: the next falls back
        assert any(k - 1 in delivered and k not in delivered for k in range(1, len(bases) - 1))

    def test_last_frame_leaves_no_report(self):
        trace = parse_trace("0 I 0 1000\n1 P 40 1000\n2 P 80 1000\n")
        result = run("atxop", [trace], make_tspec(), profile=PROFILE_11B)
        assert [g.basis for g in grants_us(result)] == [
            GrantBasis.REFERENCE_MEAN, GrantBasis.PIGGYBACK_SIZE, GrantBasis.PIGGYBACK_SIZE,
            # the frame at 80 ms is the trace's last: nothing is reported
            GrantBasis.REFERENCE_MEAN, GrantBasis.REFERENCE_MEAN,
        ]
        # nothing reported after the last frame also drops the report its
        # predecessor made in the same TXOP
        nxt = self.after_two_deliveries((1000, 1000))
        assert nxt.basis is GrantBasis.REFERENCE_MEAN

    def test_newer_report_wins(self):
        # the first delivery reports 1000 bytes, the second 2000
        nxt = self.after_two_deliveries((1000, 1000, 2000))
        assert nxt.basis is GrantBasis.PIGGYBACK_SIZE
        assert nxt.duration_us == O_ONE_11B + Fraction(2000 * 8, 11)

    @staticmethod
    def after_two_deliveries(sizes):
        """Station 2's grant after a TXOP that delivers two frames: it
        starts 10 ms into the grid station 1 opens, so its first,
        mean-sized grant finds its frames at 0 and 25 ms queued."""
        late = parse_trace("\n".join(
            f"{i} P {ms} {size}" for i, (ms, size) in enumerate(zip((0, 25, 60), sizes))
        ))
        stations = (StationSpec(aid=1, trace=const_trace(5, 3800), tspec=make_tspec()),
                    StationSpec(aid=2, trace=late, tspec=make_tspec(), start_s=Fraction(1, 100)))
        result = run("atxop", stations=stations, profile=PROFILE_11B)
        first, nxt = [g for g in grants_us(result) if g.aid == 2][:2]
        assert first.basis is GrantBasis.REFERENCE_MEAN
        in_first = [r.sequence for r in records(result)
                    if r.aid == 2 and r.rx_time_us <= first.start_us + first.duration_us]
        assert in_first == [0, 1]
        return nxt


class TestLostExchanges:
    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    @pytest.mark.parametrize("per", [0.5, 0.0])
    def test_one_draw_per_exchange_header_only_too(self, scheduler, per):
        # two stations with one 2700-byte frame each: every one of the 100
        # grants holds one exchange, the frame in the first interval and a
        # header-only frame after it, and each exchange takes one draw
        trace = parse_trace("0 I 0 2700\n")
        result = run(scheduler, [trace, trace], TSPEC_54, per=per, seed=4,
                     sim_time_s=Fraction(2))
        assert len(grants_us(result)) == 100
        rng = random.Random(4)
        lost = [rng.random() < per for _ in range(100)]
        assert (result.n_lost, result.n_null_lost) == (sum(lost[:2]), sum(lost[2:]))
        assert result.n_delivered == 2 - result.n_lost
        if per:
            assert (result.n_lost, result.n_null_lost) == (2, 52)

    @pytest.mark.parametrize("scheduler", ["hcca", "atxop", "amtxop"])
    @pytest.mark.parametrize("per", [0.3, 0.0])
    def test_no_draw_without_loss(self, monkeypatch, scheduler, per):
        # the engine's generator counts its draws: at per 0 every exchange
        # arrives without one, otherwise each exchange takes one
        draws = []

        class Counting(random.Random):
            def random(self):
                draws.append(None)
                return super().random()

        monkeypatch.setattr(engine, "random", SimpleNamespace(Random=Counting))
        result = run(scheduler, [const_trace(50, 2700)] * 3, TSPEC_54, per=per,
                     sim_time_s=Fraction(2))
        assert result.n_delivered > 0
        if per:
            assert result.n_lost > 0
            assert len(draws) >= result.n_delivered + result.n_lost
        else:
            assert draws == []


# 54 Mb/s payload, 2 Mb/s control, SI = 40 ms: one 2700-byte mean MSDU
# per interval, a 5400-byte maximum, and slots without a poll of their own
TSPEC_54 = make_tspec(2700, 5400, 540_000, 54_000_000)
O_POLL_11G = airtime_control(PROFILE_11G, 2_000_000)   # 264
PRICE_54 = exchange(PROFILE_11G, 2_000_000, 54_000_000)
O_SLOT = reference_overhead(1, PRICE_54) - O_POLL_11G   # 1264/3
REF_54 = txop_reference(TSPEC_54, Fraction(1, 25), PRICE_54)
FALLBACK = REF_54 - O_POLL_11G   # 800 + 1264/3


def mixed_run():
    """Station 1 reports 2700-byte frames, station 2 runs dry after its
    first frame and falls back, station 3 reports 1350-byte frames."""
    traces = [const_trace(5, 2700), parse_trace("0 I 0 2700\n"), const_trace(5, 1350)]
    return run("amtxop", traces, TSPEC_54)


class TestMultipollOverhead:
    def test_single_msdu_11g(self):
        # per-slot overhead with the poll amortized away: ACK + header + 3 SIFS + prop
        result = run("amtxop", [const_trace(5, 2700)], TSPEC_54)
        steady = grants_us(result)[1:]
        assert steady and {g.duration_us - 400 for g in steady} == {Fraction(1264, 3)}
        assert O_SLOT == Fraction(1264, 3)

    def test_difference_is_exactly_one_poll(self):
        # the same streams under single polls and under the multi-poll:
        # every grant, report-sized or fallback, differs by one poll
        traces = [const_trace(5, 2700), parse_trace("0 I 0 2700\n"), const_trace(5, 1350)]
        for n in (1, 2, 3):
            single = grants_us(run("atxop", traces[:n], TSPEC_54))
            multi = grants_us(run("amtxop", traces[:n], TSPEC_54))
            assert len(single) == len(multi) > 0
            for s, m in zip(single, multi):
                assert (s.si_index, s.aid, s.basis) == (m.si_index, m.aid, m.basis)
                assert s.duration_us - m.duration_us == O_POLL_11G


class TestMultipollRecords:
    def test_body_grows_four_bytes_per_record(self):
        # one more record: 4 more bytes at the 2 Mb/s control rate
        for n in range(1, 12):
            step = airtime_multipoll(n + 1, PROFILE_11G, 2_000_000) - airtime_multipoll(
                n, PROFILE_11G, 2_000_000
            )
            assert step == Fraction(4 * 8 * 1_000_000, 2_000_000)

    def test_each_interval_polls_distinct_positive_aids(self):
        trace = const_trace(5, 2700)
        with pytest.raises(ConfigError):
            StationSpec(aid=0, trace=trace, tspec=TSPEC_54)
        with pytest.raises(ConfigError):
            make_scenario("amtxop", stations=(StationSpec(aid=1, trace=trace, tspec=TSPEC_54),) * 2)
        for grants in by_si(mixed_run()).values():
            aids = [g.aid for g in grants]
            assert len(set(aids)) == len(aids)

    def test_backoff_accumulates_predecessors(self):
        # each slot starts after the multi-poll and every predecessor's grant
        mp = airtime_multipoll(3, PROFILE_11G, 2_000_000)
        for k, grants in by_si(mixed_run()).items():
            t = k * 40_000 + mp
            for g in grants:
                assert g.start_us == t
                t += g.duration_us


class TestMultipollGrants:
    def test_mixed_reports_and_fallbacks(self):
        result = mixed_run()
        steady = [g for g in grants_us(result) if g.si_index >= 1]
        assert len(steady) == 3 * 4
        for g in steady:
            expect = {
                1: (400 + O_SLOT, GrantBasis.PIGGYBACK_SIZE),
                2: (FALLBACK, GrantBasis.REFERENCE_MEAN),
                3: (200 + O_SLOT, GrantBasis.PIGGYBACK_SIZE),
            }[g.aid]
            assert (g.duration_us, g.basis) == expect
        first = by_si(result)[0]
        assert [(g.duration_us, g.basis) for g in first] == [(FALLBACK, GrantBasis.REFERENCE_MEAN)] * 3

    def test_lost_report_gives_mean_grant_next_interval(self):
        # a report sizes one grant only: after a lost frame (and with it
        # the report it carried) the next interval falls back
        result = run("amtxop", [const_trace(50, 2700)] * 2, TSPEC_54,
                     per=0.5, seed=3, sim_time_s=Fraction(2))
        delivered = {(r.aid, r.sequence) for r in records(result)}
        grants = {(g.aid, g.si_index): g for g in grants_us(result)}
        checked = 0
        for (aid, k), g in grants.items():
            nxt = grants.get((aid, k + 1))
            if (aid, k) not in delivered and nxt is not None:
                assert nxt.basis is GrantBasis.REFERENCE_MEAN
                checked += 1
        assert checked > 0

    def test_fallback_is_reference_grant_without_poll(self):
        # the multi-poll fallback is the mean-based grant without its own poll
        result = run("amtxop", [const_trace(5, 2700)], TSPEC_54)
        hcca = grants_us(run("hcca", [const_trace(5, 2700)], TSPEC_54))[0]
        assert grants_us(result)[0].duration_us == hcca.duration_us - O_POLL_11G == FALLBACK
        assert FALLBACK == 800 + Fraction(1264, 3)

    def test_polling_order_preserved(self):
        for grants in by_si(mixed_run()).values():
            assert [g.aid for g in grants] == [1, 2, 3]

    def test_no_multipoll_without_active_station(self):
        # no active station, no multi-poll: every stream stops after 0.1 s
        trace = const_trace(5, 2700)
        stopping = tuple(StationSpec(aid=aid, trace=trace, tspec=TSPEC_54, stop_s=Fraction(1, 10))
                         for aid in (1, 2))
        result = run("amtxop", stations=stopping, log_events=True)
        assert max(g.si_index for g in grants_us(result)) == 2
        assert sum("MULTIPOLL" in line for line in result.event_log) == 3
        assert result.n_service_intervals == 5

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=7500), min_size=2, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_multipoll_airtime_beats_single_polls(self, sizes):
        """Whole-interval identity: one multi-poll plus the slots that shed
        their polls never ends an interval later than the same grants under
        per-station polling."""
        traces = [const_trace(5, s) for s in sizes]

        def interval_ends(scheduler):
            ends = {}
            for g in grants_us(run(scheduler, traces, TSPEC_54)):
                ends[g.si_index] = max(ends.get(g.si_index, 0), g.start_us + g.duration_us)
            return ends

        multi, single = interval_ends("amtxop"), interval_ends("atxop")
        assert multi.keys() == single.keys() and multi
        assert all(multi[k] <= single[k] for k in multi)
