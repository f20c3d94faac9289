import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hccasim.metrics import (
    MetricsReport,
    aggregate_throughput,
    aggregate_txop,
    build_report,
    delivery_sums,
    e2e_delay,
    utilization_improvement,
)


def delivery(gen_tick, rx_tick, size=1000, aid=1, seq=0):
    return (aid, seq, size, gen_tick, rx_tick)


class TestDelay:
    def test_mean_in_ms(self):
        assert e2e_delay(2000 + 4000, 2, 1) == 3  # (2 ms + 4 ms) / 2

    def test_empty_is_nan(self):
        assert math.isnan(e2e_delay(0, 0, 1))

    def test_exact_fractions_survive(self):
        # one delivery of 22970/11 us at 11 ticks per us
        assert e2e_delay(22970, 1, 11) == Fraction(2297, 1100)

    @given(shift=st.integers(min_value=0, max_value=10**9))
    def test_translation_invariant(self, shift):
        """Moving every tick and the warmup boundary together changes no sum."""
        base = [delivery(0, 1500), delivery(100, 700), delivery(4000, 9000), delivery(50, 60),
                delivery(200, 200)]   # a zero delay is allowed and counted
        moved = [delivery(gen + shift, rx + shift) for _a, _s, _z, gen, rx in base]
        assert delivery_sums(moved, 100 + shift) == delivery_sums(base, 100) == (3, 5600, 3000)


class TestDeliverySums:
    def test_rx_before_gen_rejected(self):
        with pytest.raises(ValueError):
            delivery_sums([delivery(2000, 1000)])

    def test_before_warmup_not_checked_or_counted(self):
        assert delivery_sums([delivery(10, 5), delivery(20, 25, size=7)], 20) == (1, 5, 7)


class TestThroughput:
    def test_bits_over_duration(self):
        assert aggregate_throughput(1000 + 500, 2) == 6000

    def test_identity_bits_equals_rate_times_duration(self):
        rate = aggregate_throughput(100 + 900 + 5500, Fraction(13, 10))
        assert rate * Fraction(13, 10) == 8 * 6500

    def test_empty_is_zero(self):
        assert aggregate_throughput(0, 1) == 0

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            aggregate_throughput(0, 0)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=10000), max_size=30))
    def test_additive_over_concatenation(self, sizes):
        half = len(sizes) // 2
        a = aggregate_throughput(sum(sizes[:half]), 7)
        b = aggregate_throughput(sum(sizes[half:]), 7)
        assert a + b == aggregate_throughput(sum(sizes), 7)


class TestTxopTime:
    def test_sums_durations(self):
        # 2000 + 1001/2 + 1500 us at 2 ticks per us
        assert aggregate_txop(4000 + 1001 + 3000, 2) == Fraction(8001, 2 * 10**6)

    def test_empty(self):
        assert aggregate_txop(0, 1) == 0


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
        # one 1000-byte delivery after 2000 us, 3000 us granted, over 2 s
        report = build_report(1, 2000, 1000, 3000, 1, 2, n_lost=3)
        assert report == MetricsReport(
            n_delivered=1,
            n_lost=3,
            mean_delay_ms=2.0,
            throughput_bps=4000.0,
            aggregate_txop_s=0.003,
        )

    def test_empty_run(self):
        report = build_report(0, 0, 0, 0, 1, 1)
        assert report.n_delivered == 0
        assert math.isnan(report.mean_delay_ms)
        assert report.throughput_bps == 0
