"""Airtime arithmetic oracles and properties."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hccasim.experiment import emit_table2
from hccasim.phy import (
    PROFILE_11B,
    PROFILE_11G,
    Exchange,
    airtime_control,
    airtime_data,
    airtime_multipoll,
    exchange,
    plcp_time_us,
)

CTRL_2M = 2_000_000


def gains(n_max):
    """The gain column of table2 on 11g with 2 Mb/s control, n = 1..n_max."""
    return [gain for _n, _polls, _multi, gain in emit_table2(PROFILE_11G, CTRL_2M, n_max)]


def test_profile_defaults_11g():
    p = PROFILE_11G
    assert p.sifs_us == 10
    assert (p.preamble_bytes, p.plcp_header_bytes) == (12, 3)
    assert p.plcp_rate == 1_000_000 and p.basic_rate == 1_000_000
    assert p.mac_header_bytes == 36
    assert p.data_rate == 54_000_000
    assert p.prop_delay_us == 2


def test_profile_defaults_11b():
    p = PROFILE_11B
    assert (p.preamble_bytes, p.plcp_header_bytes) == (18, 6)
    assert p.data_rate == 11_000_000


def test_airtime_data_3800_bytes_11g():
    # 96 + 24 preamble/PLCP at 1 Mb/s, then (36 + 3800) bytes at 54 Mb/s
    assert airtime_data(3800, PROFILE_11G, 54_000_000) == Fraction(18584, 27)
    assert float(airtime_data(3800, PROFILE_11G, 54_000_000)) == pytest.approx(688.30, abs=0.005)


def test_airtime_data_header_only():
    assert airtime_data(0, PROFILE_11G, 54_000_000) == 120 + Fraction(288, 54)
    assert float(airtime_data(0, PROFILE_11G, 54_000_000)) == pytest.approx(125.33, abs=0.005)


def test_airtime_data_rate_override():
    got = airtime_data(3800, PROFILE_11G, 11_000_000)
    assert got == Fraction(32008, 11)
    assert float(got) == pytest.approx(2909.82, abs=0.005)


def test_single_poll_at_2mbps_is_264us():
    assert airtime_control(PROFILE_11G, CTRL_2M) == 264


def test_ack_equals_single_poll():
    # both are the header-only PPDU: a data frame's PLCP and MAC header
    # without payload, sent at the control rate
    for rate in (1_000_000, CTRL_2M, 54_000_000):
        assert airtime_control(PROFILE_11G, rate) == airtime_data(0, PROFILE_11G, rate)


def test_single_poll_at_data_rate():
    got = airtime_control(PROFILE_11G, 54_000_000)
    assert float(got) == pytest.approx(125.33, abs=0.005)


def test_control_rate_defaults_to_basic_rate():
    assert airtime_control(PROFILE_11G) == airtime_control(PROFILE_11G, PROFILE_11G.basic_rate)


def test_multipoll_values():
    assert airtime_multipoll(1, PROFILE_11G, CTRL_2M) == 284
    assert airtime_multipoll(2, PROFILE_11G, CTRL_2M) == 300
    assert airtime_multipoll(9, PROFILE_11G, CTRL_2M) == 412


def test_poll_table_exact_closed_forms():
    # single polls are exactly 264*N us and multi-polls 268 + 16*N us
    for n in range(1, 10):
        assert n * airtime_control(PROFILE_11G, CTRL_2M) == 264 * n
        assert airtime_multipoll(n, PROFILE_11G, CTRL_2M) == 268 + 16 * n


def test_gain_ratio_values():
    g = gains(9)
    assert g[0] == 0
    assert float(g[1]) == pytest.approx(0.43, abs=0.005)
    assert float(g[8]) == pytest.approx(0.83, abs=0.005)


@given(payload=st.integers(min_value=0, max_value=100_000))
def test_airtime_data_strictly_increasing_in_payload(payload):
    a = airtime_data(payload, PROFILE_11G, 54_000_000)
    b = airtime_data(payload + 1, PROFILE_11G, 54_000_000)
    assert b > a


@given(
    payload=st.integers(min_value=0, max_value=100_000),
    rate=st.sampled_from([1, 2, 6, 11, 18, 36, 54]),
)
def test_airtime_data_strictly_decreasing_in_rate(payload, rate):
    slow = airtime_data(payload, PROFILE_11G, rate * 1_000_000)
    fast = airtime_data(payload, PROFILE_11G, (rate + 1) * 1_000_000)
    assert fast < slow


@given(n=st.integers(min_value=2, max_value=64))
def test_multipoll_beats_single_polls_for_two_or_more(n):
    multi = airtime_multipoll(n, PROFILE_11G, CTRL_2M)
    singles = n * airtime_control(PROFILE_11G, CTRL_2M)
    assert multi < singles


@given(
    n=st.integers(min_value=1, max_value=64),
    rate=st.sampled_from([1_000_000, 2_000_000, 11_000_000, 54_000_000]),
)
def test_multipoll_linear_in_record_count(n, rate):
    delta = airtime_multipoll(n + 1, PROFILE_11G, rate) - airtime_multipoll(n, PROFILE_11G, rate)
    assert delta == Fraction(4 * 8 * 1_000_000, rate)


@given(n=st.integers(min_value=1, max_value=200))
def test_gain_ratio_bounded(n):
    g = gains(n)[-1]
    assert 0 <= g < 1


def test_gain_ratio_monotone_toward_asymptote():
    g = gains(20)
    assert all(b >= a for a, b in zip(g, g[1:]))
    # limit is 1 - (4 bytes at control rate) / (one single poll)
    limit = 1 - Fraction(16, 264)
    assert g[-1] < limit


def test_plcp_time_11g_is_120us():
    assert plcp_time_us(PROFILE_11G) == 120


def test_exchange_parts():
    # 11g at 54 Mb/s: a 264 us poll at 2 Mb/s, a 120 us preamble/PLCP plus
    # a 36-byte MAC header at 54 Mb/s, and 8 bits per payload byte
    g = exchange(PROFILE_11G, CTRL_2M, 54_000_000)
    assert g == Exchange(poll=264, hdr=Fraction(376, 3), byte=Fraction(4, 27), sifs=10, prop=2)
    # 11b at 11 Mb/s: a 192 us preamble/PLCP
    b = exchange(PROFILE_11B, CTRL_2M, 11_000_000)
    assert b == Exchange(poll=336, hdr=Fraction(2400, 11), byte=Fraction(8, 11), sifs=10, prop=2)
    # an ACK is a poll's PPDU, and no control rate is the profile basic rate
    assert g.ack == g.poll and b.ack == b.poll
    assert exchange(PROFILE_11G, None, 54_000_000).poll == airtime_control(PROFILE_11G, 1_000_000)

