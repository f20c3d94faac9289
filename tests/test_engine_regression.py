"""Byte-level regression of the engine over a small scenario grid.

Each scenario's packet records, grant log and run counters are hashed;
the digests were recorded before the grant path was rewritten on integer
ticks and pin its behaviour: fallback and report-sized grants, deferral,
multi-poll start times, admission as the service interval shrinks, loss,
mobility across rate tiers, stream stop and the 11b profile.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hccasim.engine import Mobility, Scenario, StationSpec, run_scenario
from hccasim.hcca import GrantBasis
from hccasim.phy import PROFILE_11B, PROFILE_11G
from hccasim.traces import Tspec, load_trace

from conftest import grants_us, records, tier_changes_us

ROOT = Path(__file__).resolve().parents[1]
TRACE = load_trace(ROOT / "traces" / "jp1_high.txt")
TIERS = ((80, 54_000_000), (200, 36_000_000), (250, 18_000_000), (325, 6_000_000))


def tspec(msi, rate=11_000_000):
    return Tspec(3800, 7500, Fraction(770_000), Fraction("0.12"), rate, Fraction(msi))


def stations(msis, starts=None, stops=None):
    starts = starts or [0] * len(msis)
    stops = stops or [None] * len(msis)
    return tuple(
        StationSpec(
            aid=i + 1, trace=TRACE, tspec=tspec(m),
            start_s=Fraction(start), stop_s=None if stop is None else Fraction(stop),
        )
        for i, (m, start, stop) in enumerate(zip(msis, starts, stops))
    )


CASES = {
    "msi40": dict(stations=stations(["0.04"] * 4)),
    "msi60": dict(stations=stations(["0.06"] * 4)),
    "msi120": dict(stations=stations(["0.12"] * 3)),
    # later starters with tighter MSIs shrink the SI from 120 to 60 to 40 ms
    "mixed-msi": dict(stations=stations(["0.12", "0.12", "0.06", "0.04"], starts=[0, 0, "0.5", "1.1"])),
    "per": dict(stations=stations(["0.04"] * 5), per=0.12, seed=5),
    "mobility": dict(
        stations=stations(["0.04"] * 4),
        per=0.05,
        seed=9,
        sim_time_s=Fraction(5),
        mobility=Mobility(
            tiers=TIERS, speed_mps=Fraction(20), start_s=Fraction(0),
            initial_distance_ft=Fraction(30),
        ),
    ),
    "stop": dict(stations=stations(["0.04"] * 3, stops=[None, "0.9", None]), warmup_s=Fraction(1, 2)),
    "11b": dict(stations=stations(["0.04"] * 6), profile=PROFILE_11B, per=0.03, seed=2),
}

# sha256 of (records, grant log, counters) per (case, scheduler)
DIGESTS = {
    ("11b", "hcca"): "5710962b5e165af60a114f89e079d5cdcbb4bc8b65bc79c7a22d3ccd7b280f97",
    ("11b", "atxop"): "2f1c1d8fd74f6a45114a90778dac1a689fa001d97469e85cae2ec56cd6e158bc",
    ("11b", "amtxop"): "54104496940f21f9d5184c58cc5720957ce5b69d4016e40a415c457af2517af7",
    ("mixed-msi", "hcca"): "b62bc03fb5d2149b5c8db29b865eda045ca2231e4ca478dc3ff17d9254b86184",
    ("mixed-msi", "atxop"): "a41450c9418d9f29178eb9a9844b57a58f07365d2d4f577d3c850dafdbe53a5d",
    ("mixed-msi", "amtxop"): "07b1703b1790c3fe450db76ba6e7199fcb974356e14e9aedf408b5c13552b679",
    ("mobility", "hcca"): "9d496fc98b875fe556280eed4bb5e71793033c2a4de88c6562a2bc7affb78cff",
    ("mobility", "atxop"): "d3875a79346720e83b4ab45df97d7be34d294f8c7d004aec2588c5845d84c18c",
    ("mobility", "amtxop"): "fee7ea7950d68d8522003a11ef6d848b857da87f13fff66edc7fbd8182220003",
    ("msi120", "hcca"): "d6cb8e4711846761b163f0c073fcc42b42a8419beeaa0453fce8108dcb67f160",
    ("msi120", "atxop"): "25f19dc4b8711c426f42b710e91ad8cf30a9ea0b0cbbb4626e473601970afdc8",
    ("msi120", "amtxop"): "8597709b419309296db31fe0e9c91db46eba4f2cd74d780e1e9cf8dd7355a699",
    ("msi40", "hcca"): "5d54568056e56277298b5b4434f3d01b3266da5d20c59c28454deca76bb30c4c",
    ("msi40", "atxop"): "0bb6ebd13956adac2199cae7da7a7a3659e7918fd20f82ca6f3b9fa20b7bff41",
    ("msi40", "amtxop"): "9b56b2c50922e7cf67351a839398181b12c0fba830989befe52bf980e28c1e01",
    ("msi60", "hcca"): "212e3d4e1c60c66b451e02678e89452f66ddc6e6aeb7088566421452614ac373",
    ("msi60", "atxop"): "e527f1f628df61142a66a35646ede283d498a7235982c0047321f4d561c4edc2",
    ("msi60", "amtxop"): "880e4a1338c36c3be70c3db51c89ce2db6884731aa977da3c8b61980c65298ce",
    ("per", "hcca"): "8f5d116c833e0cb3ad19180a1a2d43df434dbe2184c5f3d195792852809cf273",
    ("per", "atxop"): "f3cbd30bbcd43b6055f5e0c2031724b54f14b22d71597f3e38279fc8ba94f278",
    ("per", "amtxop"): "226082331210e9ad97ee810b657b91336a2793e05dddfd4909669630bf0175ed",
    ("stop", "hcca"): "d28b41019aff19f9d1f7ff3372a2d96a70e25519786d8b8339a35797ec50ec2b",
    ("stop", "atxop"): "37600febf5b389e5e973d22cf893c55086078f74a5c21de83910d6a6e117fbf6",
    ("stop", "amtxop"): "b4434ba022f44295439f279821538af3fed56d5d436178276d546b06a2ba674b",
}


def scenario(case, scheduler):
    kw = dict(
        name=f"{case}-{scheduler}",
        scheduler=scheduler,
        profile=PROFILE_11G,
        sim_time_s=Fraction(2),
        beacon_interval_s=Fraction(3, 25),
        control_rate=2_000_000,
    )
    kw.update(CASES[case])
    return Scenario(**kw)


def digest(result):
    h = hashlib.sha256()
    for r in records(result):
        h.update(repr((r.aid, r.sequence, r.size_bytes, r.gen_time_us, r.rx_time_us)).encode())
    h.update(b"|grants|")
    for g in grants_us(result):
        assert isinstance(g.basis, GrantBasis)
        assert isinstance(g.start_us, Fraction) and isinstance(g.duration_us, Fraction)
        h.update(repr((g.si_index, g.aid, g.start_us, g.duration_us, g.basis)).encode())
    h.update(b"|counters|")
    counters = (
        result.si_s, result.n_offered, result.n_admitted, result.admitted_aids,
        result.rejected_aids, result.n_generated, result.n_delivered, result.n_lost,
        result.n_lost_measured, result.n_null_lost, result.n_left_queued,
        result.n_deferred_slots, result.n_beacons, result.n_service_intervals,
        tier_changes_us(result),
    )
    h.update(repr(counters).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheduler", ("hcca", "atxop", "amtxop"))
def test_engine_digest(case, scheduler):
    result = run_scenario(scenario(case, scheduler))
    assert result.n_generated == result.n_delivered + result.n_lost + result.n_left_queued
    assert digest(result) == DIGESTS[(case, scheduler)]


def test_grid_exercises_every_path():
    """The grid is only a regression if it reaches the branches it names."""
    mixed = run_scenario(scenario("mixed-msi", "atxop"))
    assert mixed.si_s == Fraction(1, 25)
    assert len({g.duration_us for g in grants_us(mixed) if g.basis is GrantBasis.REFERENCE_MEAN}) > 1
    mob = run_scenario(scenario("mobility", "amtxop"))
    assert [rate for _, rate in mob.tier_changes] == [r for _, r in TIERS] + [None]
    assert mob.n_deferred_slots > 0 and mob.n_lost > 0
    b = run_scenario(scenario("11b", "hcca"))
    assert b.rejected_aids == (6,)


EVENT_LOG_DIGESTS = {
    "atxop": "dbced224e29fb6e123a9ebaff33752a6891c94f9125840c84d894ef2eda23547",
    "amtxop": "20c5e2b923a3dda93b1d6f4fdda54ca162c4991b4f8fc7d81e5bfed520443253",
}


@pytest.mark.parametrize("scheduler", sorted(EVENT_LOG_DIGESTS))
def test_event_log_digest(scheduler):
    result = run_scenario(replace(scenario("mobility", scheduler), log_events=True))
    assert digest(result) == DIGESTS[("mobility", scheduler)]
    log = "\n".join(result.event_log).encode()
    assert hashlib.sha256(log).hexdigest() == EVENT_LOG_DIGESTS[scheduler]


# Streams that start or stop between two interval starts: their ADMIT and
# STREAM-END lines fall between the RX lines of the slots around them, so
# these logs pin where stream events sit among slots and interval starts.
STREAM_EVENT_LOG_DIGESTS = {
    ("mixed-msi", "hcca"): "fe1758f09ca3d15beb9bc539bd1302a6d27637be901a84f7d0b76443341afe29",
    ("mixed-msi", "atxop"): "53f550cc0703311f1a2f6d4a0d1ce92b4b0a3f2d8a62088e2c429e52cefa13be",
    ("mixed-msi", "amtxop"): "849d6692fca5762c0d1e6fa3e2f284360f7c52cc74fe0fab05434b15d4728759",
    ("stop", "hcca"): "81f69b12774e95655f6ace779745ad0f9b4fd120ceda291e306bf0fc7f3862bd",
    ("stop", "atxop"): "d85ee3ee9831b546a0fd1882f1bfc7c016c6a8d565251e55962058c3cd811e27",
    ("stop", "amtxop"): "343562a76e9dd715233f7c8f6af503406a70ad636261c160af7bd304da7a35c5",
}


@pytest.mark.parametrize("case, scheduler", sorted(STREAM_EVENT_LOG_DIGESTS))
def test_stream_event_log_digest(case, scheduler):
    result = run_scenario(replace(scenario(case, scheduler), log_events=True))
    assert digest(result) == DIGESTS[(case, scheduler)]
    log = "\n".join(result.event_log)
    assert any(line.split()[1] in ("ADMIT", "STREAM-END") and not line.startswith("t=0.")
               for line in result.event_log)
    assert hashlib.sha256(log.encode()).hexdigest() == STREAM_EVENT_LOG_DIGESTS[(case, scheduler)]


def test_no_grant_past_the_end():
    """A run that ends inside an interval issues no grant starting at or
    after its end: such a grant is neither logged nor charged to the
    aggregate TXOP, and it is not a deferral."""
    sc = scenario("msi40", "amtxop")
    cut = run_scenario(replace(sc, sim_time_s=Fraction(201, 1000), log_events=True))
    end_us = Fraction(201_000)
    assert len(cut.grants) == 21
    assert all(g.start_us < end_us for g in grants_us(cut))
    assert cut.n_deferred_slots == 0
    assert not any(line.split()[1] == "DEFER" for line in cut.event_log)
    longer = run_scenario(replace(sc, sim_time_s=Fraction(21, 100)))
    assert cut.report().aggregate_txop_s < longer.report().aggregate_txop_s
