"""The engine's rules, asserted by check_run over the regression grid,
over drawn runs (any SI, loss rate and rate walk, with a stream stopping
early) and over a run whose deferrals have a smaller grant behind them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

import test_engine
from conftest import check_run
from hccasim.engine import Mobility, Scenario, StationSpec, run_scenario
from hccasim.phy import PROFILE_11G
from hccasim.traces import Tspec
from test_engine import const_trace
from test_engine_regression import CASES, scenario

DRAWN = test_engine.TestLossAndDeterminism


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheduler", ("hcca", "atxop", "amtxop"))
def test_regression_case_keeps_the_rules(case, scheduler):
    check_run(run_scenario(scenario(case, scheduler)))


@given(**DRAWN.SPACE)
@settings(max_examples=40, deadline=None)
def test_drawn_run_keeps_the_rules(scheduler, msi, per, start_ft, n_stations, stop_ds, sim_ds, seed):
    sc = DRAWN().space_scenario(scheduler, msi, per, start_ft, n_stations, stop_ds, sim_ds, seed)
    check_run(run_scenario(sc))


@pytest.mark.parametrize("scheduler", ("hcca", "atxop", "amtxop"))
def test_a_deferral_defers_the_rest_of_the_interval(scheduler):
    """Three streams admitted at 54 Mb/s walk into 6 Mb/s, where the two
    16 000-byte grants no longer fit one 40 ms SI: the second is deferred,
    and so is the 100-byte grant behind it, which would fit."""
    big = Tspec(16_000, 16_000, Fraction(3_200_000), Fraction("0.08"), 6_000_000, Fraction("0.04"))
    small = Tspec(100, 100, Fraction(20_000), Fraction("0.08"), 6_000_000, Fraction("0.04"))
    stations = tuple(StationSpec(aid=i + 1, trace=const_trace(15, size), tspec=tspec)
                     for i, (size, tspec) in enumerate([(16_000, big), (16_000, big), (100, small)]))
    result = run_scenario(Scenario(
        name="deferral", scheduler=scheduler, profile=PROFILE_11G, stations=stations,
        sim_time_s=Fraction(1, 2), beacon_interval_s=Fraction(3, 25), control_rate=2_000_000,
        mobility=Mobility(tiers=((80, 54_000_000), (325, 6_000_000)), speed_mps=Fraction(20),
                          start_s=Fraction(0), initial_distance_ft=Fraction(70)),
    ))
    assert result.n_admitted == 3 and result.n_deferred_slots > 0
    check_run(result)
