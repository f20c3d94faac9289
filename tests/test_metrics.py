import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hccasim.engine import run_scenario
from hccasim.metrics import MetricsReport, utilization_improvement
from hccasim.traces import parse_trace

from conftest import make_scenario, make_tspec


@pytest.fixture(scope="module")
def run():
    """A real run of one station for 0.2 s, whose sums the cases replace."""
    trace = parse_trace("".join(f"{i} P {40 * i} 1000\n" for i in range(5)))
    tspec = make_tspec(1000, 1000, 200_000, 54_000_000)
    return run_scenario(make_scenario("hcca", [trace], tspec, control_rate=None))


def report(run, measured, ticks_per_us=1, duration_s=1, n_lost=0):
    """The report of run with its measured sums (delivered, delay ticks,
    payload bytes, granted ticks), K and measured window replaced."""
    scenario = replace(run.scenario, sim_time_s=Fraction(duration_s), warmup_s=Fraction(0))
    return replace(run, scenario=scenario, K=ticks_per_us, measured=measured,
                   n_lost_measured=n_lost).report()


class TestDelay:
    def test_mean_in_ms(self, run):
        # (2 ms + 4 ms) / 2
        assert report(run, (2, 2000 + 4000, 0, 0)).mean_delay_ms == 3

    def test_empty_is_nan(self, run):
        assert math.isnan(report(run, (0, 0, 0, 0)).mean_delay_ms)

    def test_exact_fractions_survive(self, run):
        # one delivery of 22970/11 us at 11 ticks per us
        got = report(run, (1, 22970, 0, 0), ticks_per_us=11).mean_delay_ms
        assert got == float(Fraction(2297, 1100))


class TestThroughput:
    def test_bits_over_duration(self, run):
        assert report(run, (2, 0, 1000 + 500, 0), duration_s=2).throughput_bps == 6000

    def test_identity_bits_equals_rate_times_duration(self, run):
        rate = report(run, (3, 0, 100 + 900 + 5500, 0), duration_s=Fraction(13, 10)).throughput_bps
        assert rate * Fraction(13, 10) == 8 * 6500

    def test_empty_is_zero(self, run):
        assert report(run, (0, 0, 0, 0)).throughput_bps == 0


class TestTxopTime:
    def test_sums_durations(self, run):
        # 2000 + 1001/2 + 1500 us at 2 ticks per us
        got = report(run, (0, 0, 0, 4000 + 1001 + 3000), ticks_per_us=2).aggregate_txop_s
        assert got == float(Fraction(8001, 2 * 10**6))

    def test_empty(self, run):
        assert report(run, (0, 0, 0, 0)).aggregate_txop_s == 0


class TestUtilization:
    def test_reduction_fraction(self):
        assert utilization_improvement(100, 80) == Fraction(1, 5)

    def test_negative_when_worse(self):
        assert utilization_improvement(100, 120) == Fraction(-1, 5)

    @given(
        ref=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(1000)),
        new=st.fractions(min_value=Fraction(0), max_value=Fraction(1000)),
    )
    def test_bounded_above_by_one(self, ref, new):
        assert utilization_improvement(ref, new) <= 1


class TestReport:
    def test_build(self, run):
        # one 1000-byte delivery after 2000 us, 3000 us granted, over 2 s
        assert report(run, (1, 2000, 1000, 3000), duration_s=2, n_lost=3) == MetricsReport(
            n_delivered=1,
            n_lost=3,
            mean_delay_ms=2.0,
            throughput_bps=4000.0,
            aggregate_txop_s=0.003,
        )

    def test_empty_run(self, run):
        got = report(run, (0, 0, 0, 0))
        assert got.n_delivered == 0
        assert math.isnan(got.mean_delay_ms)
        assert got.throughput_bps == 0
