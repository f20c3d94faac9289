from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hccasim.errors import ConfigError
from hccasim.hcca import (
    admissible,
    compute_si,
    msdu_count,
    reference_bytes,
    reference_overhead,
    txop_reference,
)
from hccasim.phy import PROFILE_11B, PROFILE_11G, exchange

from conftest import make_tspec


class TestServiceInterval:
    def test_si_divides_beacon_interval_exactly(self):
        assert compute_si(Fraction("0.12"), Fraction("0.04")) == Fraction(1, 25)

    def test_si_rounds_down_to_fit_msi(self):
        # 0.10/0.04 = 2.5 polls -> 3 intervals of 1/30 s
        assert compute_si(Fraction("0.10"), Fraction("0.04")) == Fraction(1, 30)

    def test_si_equal_msi_when_divisible(self):
        assert compute_si(Fraction("0.12"), Fraction("0.06")) == Fraction(3, 50)

    def test_msi_larger_than_beacon_interval_rejected(self):
        with pytest.raises(ConfigError):
            compute_si(Fraction("0.1"), Fraction("0.2"))

    @given(
        bi=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(2)),
        msi=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(2)),
    )
    def test_si_never_exceeds_msi_and_divides_bi(self, bi, msi):
        if msi > bi:
            with pytest.raises(ConfigError):
                compute_si(bi, msi)
            return
        si = compute_si(bi, msi)
        assert 0 < si <= msi
        assert (bi / si).denominator == 1


class TestMsduCount:
    def test_fractional_ratio_rounds_up(self):
        # 0.04 s * 770 kbit/s = 30800 bits over 30400-bit MSDUs
        assert msdu_count(Fraction(1, 25), 770_000, 3800) == 2

    def test_below_one_floors_to_one(self):
        assert msdu_count(Fraction(1, 25), 150_000, 770) == 1

    def test_exact_boundary_stays_put(self):
        # 0.04 * 200 kbit/s = 8000 bits = exactly one 1000-byte MSDU
        assert msdu_count(Fraction(1, 25), 200_000, 1000) == 1

    @given(
        si=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 5)),
        rho=st.integers(min_value=1000, max_value=10_000_000),
        size=st.integers(min_value=100, max_value=20_000),
    )
    def test_count_covers_offered_bits(self, si, rho, size):
        n = msdu_count(si, rho, size)
        assert n >= 1
        # n MSDUs must carry at least one SI worth of mean-rate traffic
        assert n * 8 * size >= min(si * rho, 8 * size)
        # and n-1 must not suffice (unless floored at 1)
        if n > 1:
            assert (n - 1) * 8 * size < si * rho


class TestOverheadAndGrant:
    def test_overhead_composition_11g_two_msdus(self):
        got = reference_overhead(2, exchange(PROFILE_11G, 2_000_000, 54_000_000))
        assert got == Fraction(3314, 3)

    def test_overhead_composition_11g_single(self):
        got = reference_overhead(1, exchange(PROFILE_11G, 2_000_000, 54_000_000))
        assert got == Fraction(2056, 3)

    def test_overhead_11b_two_msdus(self):
        got = reference_overhead(2, exchange(PROFILE_11B, 2_000_000, 11_000_000))
        assert got == Fraction(16570, 11)

    def test_overhead_header_follows_data_rate_override(self):
        # at 6 Mb/s the per-MSDU header term is 168 us instead of 376/3
        got = reference_overhead(2, exchange(PROFILE_11G, 2_000_000, 6_000_000))
        assert got == Fraction(1190)

    def test_grant_mean_dominated(self):
        # two mean MSDUs outweigh one max MSDU: 60800 bits vs 60000 bits
        ts = make_tspec()
        assert reference_bytes(ts, Fraction(1, 25)) == 7600
        g = txop_reference(ts, Fraction(1, 25), exchange(PROFILE_11B, 2_000_000, 11_000_000))
        assert g == Fraction(60800 * 1_000_000, 11_000_000) + Fraction(16570, 11)
        assert g == Fraction(77370, 11)

    def test_grant_max_dominated(self):
        # one max MSDU longer than the mean batch
        ts = make_tspec(M=16745)
        assert reference_bytes(ts, Fraction(1, 25)) == 16745
        g = txop_reference(ts, Fraction(1, 25), exchange(PROFILE_11B, 2_000_000, 11_000_000))
        assert g - Fraction(16570, 11) == Fraction(16745 * 8 * 1_000_000, 11_000_000)
        assert g - Fraction(16570, 11) == Fraction(133960, 11)

    def test_grant_at_54mbps(self):
        ts = make_tspec(R=54_000_000)
        g = txop_reference(ts, Fraction(1, 25), exchange(PROFILE_11G, 2_000_000, 54_000_000))
        assert g == Fraction(60226, 27)  # ~2230.59 us

    def test_grant_prices_payload_and_headers_at_one_rate(self):
        # the rate given, not the TSPEC's 11 Mb/s, prices both: 60800 bits
        # of payload at 6 Mb/s plus the 6 Mb/s overhead of two MSDUs
        price = exchange(PROFILE_11G, 2_000_000, 6_000_000)
        g = txop_reference(make_tspec(), Fraction(1, 25), price)
        assert g == Fraction(60800, 6) + 1190

    @given(si=st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 5)))
    def test_grant_monotone_in_si(self, si):
        ts = make_tspec()
        g1 = txop_reference(ts, si, exchange(PROFILE_11B, 2_000_000, 11_000_000))
        g2 = txop_reference(ts, si * 2, exchange(PROFILE_11B, 2_000_000, 11_000_000))
        assert g2 >= g1


class TestAdmission:
    BI = Fraction(3, 25)  # 0.12 s
    SI_US = 40_000        # compute_si(BI, 0.04) in us

    def sequential_admits(self, profile, tspec, count, t_cp=0):
        """Offer identical streams one at a time; each admitted stream is
        charged its reference grant per 40 ms SI, with 2 Mb/s polls and
        ACKs and payload at the TSPEC rate. Returns the outcomes and the
        admitted load in us per SI."""
        price = exchange(profile, 2_000_000, tspec.min_phy_rate_bps)
        grant = txop_reference(tspec, Fraction(1, 25), price)
        load = Fraction(0)
        outcomes = []
        for _ in range(count):
            ok = admissible(load + grant, self.SI_US, self.BI, t_cp)
            if ok:
                load += grant
            outcomes.append(ok)
        return outcomes, load

    def test_11b_admits_five_rejects_sixth(self):
        ts = make_tspec()  # 770 kbit/s video at 11 Mb/s PHY
        outcomes, load = self.sequential_admits(PROFILE_11B, ts, 6)
        assert outcomes == [True] * 5 + [False]
        assert load == 5 * Fraction(77370, 11)

    def test_11g_admits_well_past_twelve(self):
        ts = make_tspec(R=54_000_000)
        outcomes, _ = self.sequential_admits(PROFILE_11G, ts, 18)
        assert outcomes == [True] * 17 + [False]

    def test_contention_share_shrinks_capacity(self):
        ts = make_tspec()
        # 5 * 7033.6 us = 87.9% of the 40 ms SI; a 15% contention share
        # leaves only 85% and the fifth stream no longer fits
        outcomes, _ = self.sequential_admits(PROFILE_11B, ts, 5, t_cp=self.BI * Fraction(15, 100))
        assert outcomes == [True] * 4 + [False]

    @given(n=st.integers(min_value=1, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_load_never_exceeds_budget(self, n):
        _, load = self.sequential_admits(PROFILE_11B, make_tspec(), n)
        assert load <= self.SI_US

    @given(
        budget_pct=st.integers(min_value=0, max_value=90),
        n=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_admission_monotone_in_contention_share(self, budget_pct, n):
        # anything admitted under a larger t_cp is admitted under a smaller one
        ts = make_tspec()
        t_cp_hi = self.BI * Fraction(budget_pct, 100)
        hi, _ = self.sequential_admits(PROFILE_11B, ts, n, t_cp=t_cp_hi)
        lo, _ = self.sequential_admits(PROFILE_11B, ts, n, t_cp=0)
        assert sum(lo) >= sum(hi)
