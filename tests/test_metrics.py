import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hccasim.metrics import (
    MetricsReport,
    PacketRecord,
    aggregate_throughput,
    aggregate_txop,
    build_report,
    e2e_delay,
    utilization_improvement,
)


def rec(gen, rx, size=1000, aid=1, seq=0):
    return PacketRecord(
        aid=aid, sequence=seq, size_bytes=size,
        gen_time_us=Fraction(gen), rx_time_us=Fraction(rx),
    )


class TestPacketRecord:
    def test_delay(self):
        assert rec(1000, 2500).delay_us == 1500

    def test_rx_before_gen_rejected(self):
        with pytest.raises(ValueError):
            rec(2000, 1000)

    def test_zero_delay_allowed(self):
        assert rec(5, 5).delay_us == 0


class TestDelay:
    def test_mean_in_ms(self):
        records = [rec(0, 2000), rec(0, 4000)]
        assert e2e_delay(records) == 3  # (2 ms + 4 ms) / 2

    def test_empty_is_nan(self):
        assert math.isnan(e2e_delay([]))

    def test_exact_fractions_survive(self):
        records = [rec(0, Fraction(22970, 11))]
        assert e2e_delay(records) == Fraction(2297, 1100)

    @given(shift=st.integers(min_value=0, max_value=10**9))
    def test_translation_invariant(self, shift):
        base = [rec(0, 1500), rec(100, 700), rec(4000, 9000)]
        moved = [rec(r.gen_time_us + shift, r.rx_time_us + shift) for r in base]
        assert e2e_delay(moved) == e2e_delay(base)


class TestThroughput:
    def test_bits_over_duration(self):
        records = [rec(0, 10, size=1000), rec(0, 20, size=500)]
        assert aggregate_throughput(records, 2) == 6000

    def test_identity_bits_equals_rate_times_duration(self):
        records = [rec(0, 10, size=s) for s in (100, 900, 5500)]
        rate = aggregate_throughput(records, Fraction(13, 10))
        assert rate * Fraction(13, 10) == 8 * 6500

    def test_empty_is_zero(self):
        assert aggregate_throughput([], 1) == 0

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            aggregate_throughput([], 0)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=10000), max_size=30))
    def test_additive_over_concatenation(self, sizes):
        records = [rec(0, 1, size=s) for s in sizes]
        half = len(records) // 2
        a = aggregate_throughput(records[:half], 7)
        b = aggregate_throughput(records[half:], 7)
        assert a + b == aggregate_throughput(records, 7)


class TestTxopTime:
    def test_sums_durations(self):
        assert aggregate_txop([Fraction(2000), Fraction(1001, 2), 1500]) == Fraction(8001, 2 * 10**6)

    def test_empty(self):
        assert aggregate_txop([]) == 0


class TestUtilization:
    def test_reduction_fraction(self):
        assert utilization_improvement(100, 80) == Fraction(1, 5)

    def test_no_baseline_is_nan(self):
        assert math.isnan(utilization_improvement(0, 10))

    def test_negative_when_worse(self):
        assert utilization_improvement(100, 120) == Fraction(-1, 5)

    @given(
        ref=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(1000)),
        new=st.fractions(min_value=Fraction(0), max_value=Fraction(1000)),
    )
    def test_bounded_above_by_one(self, ref, new):
        assert utilization_improvement(ref, new) <= 1


class TestReport:
    def test_build(self):
        records = [rec(0, 2000, size=1000)]
        report = build_report(records, [Fraction(3000)], 2, n_lost=3)
        assert report == MetricsReport(
            n_delivered=1,
            n_lost=3,
            mean_delay_ms=2.0,
            throughput_bps=4000.0,
            aggregate_txop_s=0.003,
        )

    def test_empty_run(self):
        report = build_report([], [], 1)
        assert report.n_delivered == 0
        assert math.isnan(report.mean_delay_ms)
        assert report.throughput_bps == 0
