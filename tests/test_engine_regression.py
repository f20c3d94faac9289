"""Byte-level regression of the engine over the scenario grid conftest.CASES.

Each scenario's packet records, grant log and run counters are hashed;
the digests were recorded before the grant path was rewritten on integer
ticks and pin its behaviour: fallback and report-sized grants, deferral,
multi-poll start times, admission as the service interval shrinks, loss,
mobility across rate tiers, stream stop and the 11b profile.
"""

import gc
import hashlib
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from hccasim import engine
from hccasim.engine import run_scenario
from hccasim.hcca import GrantBasis

from conftest import (
    CASES, TIERS, entries, grants_us, measured_records, oracle_report, records, scenario, tier_changes_us,
)

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
    assert all(gen <= rx for _aid, _seq, _size, gen, rx in entries(result.deliveries))
    # the sums kept during the run divide into the report the records give
    report = result.report()
    assert report.n_delivered == len(measured_records(result))
    assert (report.mean_delay_ms, report.throughput_bps, report.aggregate_txop_s) == tuple(
        map(float, oracle_report(result)))
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


# hcca's log has a DEFER line in every interval at the slowest tier, so it
# pins where a deferral sits among the lines of its interval
EVENT_LOG_DIGESTS = {
    "hcca": "92d4175cd2cede1de62b4b0146b39396719bd7abdedcd56075a2b5617e440cf2",
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
    assert len(grants_us(cut)) == 21
    assert all(g.start_us < end_us for g in grants_us(cut))
    assert cut.n_deferred_slots == 0
    assert not any(line.split()[1] == "DEFER" for line in cut.event_log)
    longer = run_scenario(replace(sc, sim_time_s=Fraction(21, 100)))
    assert cut.report().aggregate_txop_s < longer.report().aggregate_txop_s


def test_contracts_are_planned_once_per_si_and_rate():
    """A one-contract run plans its contract once per distinct SI and once
    per rate change, however many streams it admits, and with logging off
    works out no ADMIT detail."""
    sc = scenario("mobility", "atxop")
    with mock.patch.object(engine, "txop_reference", wraps=engine.txop_reference) as plans, \
            mock.patch.object(engine, "msdu_count", wraps=engine.msdu_count) as counts:
        result = run_scenario(sc)
    assert len({s.tspec for s in sc.stations}) == 1 and result.n_admitted == 4
    # one SI; the rate changes from 54 to 36, 18 and 6 Mb/s after the first
    # admission, and the 54 Mb/s tier is set before it
    assert [rate for _, rate in result.tier_changes[1:-1]] == [36_000_000, 18_000_000, 6_000_000]
    assert plans.call_count == 1 + 3
    assert counts.call_count == 0


def test_a_run_leaves_no_per_event_container():
    """Deliveries and grants are flat lists of ints: a run of 200 grants
    and 200 deliveries leaves the collector (almost) nothing new to track."""
    gc.collect()
    before = len(gc.get_objects())
    result = run_scenario(scenario("msi40", "atxop"))
    gc.collect()
    assert len(gc.get_objects()) - before < 50
    assert len(grants_us(result)) == 200
