"""The engine's rules, asserted by check_run over the regression grid, over
the drawn scenario space and over a run
whose deferrals have a smaller grant behind them; and the drawn space's
reach: its draws take every engine path PATHS names."""

import functools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    CASES, PATHS, check_run, const_trace, drawn_run, make_scenario, make_tspec, paths, scenario, scenarios,
)
from hccasim.engine import Mobility, StationSpec, run_scenario


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheduler", ("hcca", "atxop", "amtxop"))
def test_regression_case_keeps_the_rules(case, scheduler):
    check_run(run_scenario(scenario(case, scheduler)))


@given(sc=scenarios())
@settings(derandomize=True, max_examples=40, database=None, deadline=None)
def test_drawn_run_keeps_the_rules(sc):
    """A drawn run keeps the engine's rules (drawn_run checks them), among
    them that every generated frame is delivered, lost or left queued."""
    result = drawn_run(sc)
    assert result.n_generated == result.n_delivered + result.n_lost + result.n_left_queued


REACHED = Counter()   # the paths draw_every_path took, per label


@given(sc=scenarios())
@settings(derandomize=True, max_examples=70, database=None, deadline=None)
def draw_every_path(sc):
    REACHED.update(paths(drawn_run(sc)))


# wraps keeps the Hypothesis attributes of draw_every_path, so that
# --hypothesis-show-statistics prints how often each path was drawn
@functools.wraps(draw_every_path, assigned=())
def test_the_drawn_space_reaches_every_path():
    """The same draws on every run take each path of PATHS at least once,
    so narrowing scenarios() until a path is out of reach fails here."""
    REACHED.clear()
    draw_every_path()
    assert set(REACHED) == set(PATHS), set(PATHS) - set(REACHED)


@pytest.mark.parametrize("scheduler", ("hcca", "atxop", "amtxop"))
def test_a_deferral_defers_the_rest_of_the_interval(scheduler):
    """Three streams admitted at 54 Mb/s walk into 6 Mb/s, where the two
    16 000-byte grants no longer fit one 40 ms SI: the second is deferred,
    and so is the 100-byte grant behind it, which would fit."""
    big, small = make_tspec(16_000, 16_000, 3_200_000, 6_000_000), make_tspec(100, 100, 20_000, 6_000_000)
    stations = tuple(StationSpec(aid=i + 1, trace=const_trace(15, size), tspec=tspec)
                     for i, (size, tspec) in enumerate([(16_000, big), (16_000, big), (100, small)]))
    result = run_scenario(make_scenario(
        scheduler, stations=stations, sim_time_s=Fraction(1, 2),
        mobility=Mobility(tiers=((80, 54_000_000), (325, 6_000_000)), speed_mps=Fraction(20),
                          start_s=Fraction(0), initial_distance_ft=Fraction(70)),
    ))
    assert result.n_admitted == 3 and result.n_deferred_slots > 0
    check_run(result)
