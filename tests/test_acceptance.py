"""End-to-end acceptance checks.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line. The heavy
sweeps are shared through the session-scoped lab fixture, so the file
reads top to bottom but the simulator only runs each scenario once.
"""

import time
from fractions import Fraction

from hccasim.analytic import AnalyticInputs, aggregate_delay, analytic_inputs, position_delays
from hccasim.engine import run_scenario
from hccasim.hcca import admissible, compute_si, txop_reference
from hccasim.experiment import emit_table2
from hccasim.phy import PROFILE_11B, PROFILE_11G, airtime_control, airtime_multipoll, exchange
from hccasim.traces import parse_trace

from conftest import CANONICAL, SCHEDULERS, VALIDATION, check_run, entries, make_scenario, shipped_trace

BI = Fraction(3, 25)


def _check(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _admission_capacity(profile, data_rate, control_rate, tspec, limit=30):
    """Admit identical streams, each charged its reference grant per SI,
    until one is rejected."""
    si = compute_si(BI, tspec.msi_s)
    grant = txop_reference(tspec, si, exchange(profile, control_rate, data_rate))
    count = 0
    while count < limit and admissible((count + 1) * grant, si * 1_000_000, BI, 0):
        count += 1
    return count, grant


def _engine_admits(profile, data_rate, control_rate, tspec, n):
    """Offer n identical streams at once to the simulator under hcca and
    return how many it admits."""
    trace = parse_trace("0 I 0 3800\n1 P 40 3800")
    sc = make_scenario("hcca", [trace] * n, tspec, profile=profile, sim_time_s=BI, beacon_interval_s=BI,
                       control_rate=control_rate, data_rate=data_rate)
    return run_scenario(sc).n_admitted


def test_criterion_01_table2():
    rows = emit_table2(PROFILE_11G, control_rate=2_000_000, n_max=9)
    paper_gains = (0.0, 0.43, 0.60, 0.69, 0.74, 0.77, 0.79, 0.81, 0.83)
    ok = True
    for (n, single, multi, gain), expected_gain in zip(rows, paper_gains):
        ok &= single == 264 * n
        ok &= multi == 268 + 16 * n
        ok &= abs(float(gain) - expected_gain) <= 0.005
    _check("table2-exactness", ok, "27 values, gains within 0.005")


def test_criterion_02_admission_counts():
    count_b, grant_b = _admission_capacity(
        PROFILE_11B, 11_000_000, 2_000_000, CANONICAL["jp1_high"]
    )
    count_g, _ = _admission_capacity(
        PROFILE_11G, 54_000_000, 2_000_000, CANONICAL["jp1_high"]
    )
    ok = count_b == 5 and count_g >= 12
    # the simulator's own admission reaches the same counts
    ok &= _engine_admits(PROFILE_11B, 11_000_000, 2_000_000, CANONICAL["jp1_high"], count_b + 1) == count_b
    ok &= _engine_admits(PROFILE_11G, 54_000_000, 2_000_000, CANONICAL["jp1_high"], count_g + 1) == count_g
    _check(
        "admission-counts",
        ok,
        f"11b admits {count_b} (per-stream TXOP {float(grant_b):.2f} us), 11g admits {count_g}",
    )


def test_criterion_03_scheduler_ordering(lab):
    t0 = time.monotonic()
    ok = True
    for trace in ("jp1_high", "f1_high"):
        means = {
            s: [
                lab.delay_run(trace, s, n).report().mean_delay_ms
                for n in range(3, 13)
            ]
            for s in SCHEDULERS
        }
        for am, at, hc in zip(means["amtxop"], means["atxop"], means["hcca"]):
            ok &= am < at < hc
        hcca = means["hcca"]
        ok &= all(a < b for a, b in zip(hcca, hcca[1:]))
    wall = time.monotonic() - t0
    ok &= wall < 120
    _check("scheduler-ordering", ok, f"two traces, N=3..12, {wall:.0f}s wall")


def test_criterion_04_delay_shape(lab):
    means = {
        s: {n: lab.delay_run("jp1_high", s, n).report().mean_delay_ms for n in range(1, 13)}
        for s in SCHEDULERS
    }
    ns = list(range(1, 13))
    ys = [means["hcca"][n] for n in ns]
    n_bar = sum(ns) / len(ns)
    y_bar = sum(ys) / len(ys)
    slope = sum((n - n_bar) * (y - y_bar) for n, y in zip(ns, ys)) / sum(
        (n - n_bar) ** 2 for n in ns
    )
    ratio_ref = means["hcca"][12] / means["amtxop"][12]
    ratio_adp = means["atxop"][12] / means["amtxop"][12]
    # reference-implementation means at twelve stations; ours may differ
    # by up to 20% in absolute terms
    anchors = {"hcca": 12.52, "atxop": 6.71, "amtxop": 5.75}
    ok = 1.05 <= slope <= 1.12
    ok &= 1.9 <= ratio_ref <= 2.5
    ok &= 1.05 <= ratio_adp <= 1.3
    for s, anchor in anchors.items():
        ok &= abs(means[s][12] - anchor) <= 0.2 * anchor
    _check(
        "delay-shape",
        ok,
        f"slope {slope:.4f} ms/station, ratios {ratio_ref:.3f}/{ratio_adp:.3f}",
    )


def test_criterion_05_throughput_neutrality(lab):
    ok = True
    worst = 0.0
    for trace in ("jp1_high", "f1_high"):
        for n in range(3, 13):
            tps = [
                lab.delay_run(trace, s, n).report().throughput_bps for s in SCHEDULERS
            ]
            spread = max(tps) / min(tps) - 1
            worst = max(worst, spread)
            ok &= min(tps) > 0 and spread <= 0.01
    _check("throughput-neutrality", ok, f"worst spread {worst:.5f}")


def test_criterion_06_txop_reduction(lab):
    ok = True
    for trace in ("jp1_low", "jp1_high"):
        txop = {
            s: {n: lab.delay_run(trace, s, n).report().aggregate_txop_s for n in range(1, 13)}
            for s in SCHEDULERS
        }
        for n in range(1, 13):
            ok &= txop["amtxop"][n] < txop["hcca"][n]
            ok &= txop["atxop"][n] < txop["hcca"][n]
    red_low = 1 - (
        lab.delay_run("jp1_low", "amtxop", 12).report().aggregate_txop_s
        / lab.delay_run("jp1_low", "atxop", 12).report().aggregate_txop_s
    )
    red_high = 1 - (
        lab.delay_run("jp1_high", "amtxop", 12).report().aggregate_txop_s
        / lab.delay_run("jp1_high", "atxop", 12).report().aggregate_txop_s
    )
    ok &= red_low >= 0.20 and red_high >= 0.15
    _check("txop-reduction", ok, f"reductions {red_low:.4f} (low) {red_high:.4f} (high)")


def test_criterion_07_analytic_validation(lab):
    worst = 0.0
    ok = True
    for trace_name in ("jp1_high", "jp1_low"):
        tspec = VALIDATION[trace_name]
        trace = shipped_trace(trace_name)
        inputs_by_n = {
            n: analytic_inputs(
                trace, n, tspec, Fraction(1, 25), PROFILE_11G,
                control_rate=1_000_000, m_intervals=750,
            )
            for n in range(1, 13)
        }
        for scheduler in SCHEDULERS:
            model = [
                float(aggregate_delay(scheduler, inputs_by_n[n])) / n
                for n in range(1, 13)
            ]
            sim = [
                lab.validation_run(trace_name, scheduler, n).report().mean_delay_ms * 1000
                for n in range(1, 13)
            ]
            err = max(abs(m - s) / s for m, s in zip(model, sim))
            worst = max(worst, err)
            ok &= err <= 0.10
    _check("analytic-validation", ok, f"max rel err {worst:.4f} over 750 SIs")


def test_criterion_08_per_robustness(lab):
    pers = [p / 100 for p in range(1, 10)]
    delays = {s: [] for s in SCHEDULERS}
    tps = {s: [] for s in SCHEDULERS}
    for per in pers:
        for s in SCHEDULERS:
            report = lab.delay_run("jp1_high", s, 12, per=per, sim_time=40).report()
            delays[s].append(report.mean_delay_ms)
            tps[s].append(report.throughput_bps)
    ok = True
    for am, at, hc in zip(delays["amtxop"], delays["atxop"], delays["hcca"]):
        ok &= am < at < hc
    monotone_note = ""
    for s in SCHEDULERS:
        series = tps[s]
        violations = sum(1 for a, b in zip(series, series[1:]) if b > a)
        if violations > 1:
            # seed noise: average three independent runs per point
            means = []
            for per in pers:
                vals = [
                    lab.delay_run("jp1_high", s, 12, per=per, sim_time=40, seed=9000 + k)
                    .report()
                    .throughput_bps
                    for k in (1, 2, 3)
                ]
                means.append(sum(vals) / 3)
            violations = sum(1 for a, b in zip(means, means[1:]) if b > a)
            monotone_note = f"; {s} re-run with 3 seeds"
            ok &= violations == 0
    _check("per-robustness", ok, f"PER 1..9%{monotone_note}")


def test_criterion_09_mobility_capacity():
    expectations = (
        (6_000_000, 4),
        (18_000_000, 8),
        (36_000_000, 13),
        (54_000_000, 18),
    )
    got = []
    ok = True
    for rate, expected in expectations:
        count, _ = _admission_capacity(
            PROFILE_11G, rate, 2_000_000, CANONICAL["jp1_high"]
        )
        got.append(count)
        ok &= abs(count - expected) <= 1
        ok &= _engine_admits(PROFILE_11G, rate, 2_000_000, CANONICAL["jp1_high"], count + 1) == count
    _check(
        "mobility-capacity",
        ok,
        "admitted " + "/".join(map(str, got)) + " at 6/18/36/54 Mb/s (target 4/8/13/18, +-1)",
    )


def test_criterion_10_property_suites(lab):
    # determinism: two fresh runs, identical logs
    base = lab.delay_run("jp1_high", "atxop", 3, per=0.3, sim_time=22).scenario
    a = run_scenario(base)
    b = run_scenario(base)
    deterministic = a.deliveries == b.deliveries and a.grants == b.grants

    # CAP budget: grants stay inside their service interval, checked in ticks
    budget_ok = True
    for result in lab.results():
        if result.scenario.mobility is None and result.scenario.warmup_s == 20:
            si_t = 40_000 * result.K
            for si_index, _aid, start_t, g_t, _basis in entries(result.grants):
                cap_start_t = (20_000_000 + si_index * 40_000) * result.K
                budget_ok &= cap_start_t <= start_t
                budget_ok &= start_t + g_t <= cap_start_t + si_t

    # conservation: every generated frame is delivered, lost, or queued
    conservation = all(
        r.n_generated == r.n_delivered + r.n_lost + r.n_left_queued
        for r in lab.results()
    )

    # multi-poll airtime is affine in the record count
    base_mp = airtime_multipoll(1, PROFILE_11G, 2_000_000)
    linear = all(
        airtime_multipoll(n, PROFILE_11G, 2_000_000) == base_mp + 16 * (n - 1)
        for n in range(1, 41)
    )
    # and each multi-polled slot sheds exactly its 264 us poll
    linear &= airtime_control(PROFILE_11G, 2_000_000) == 264

    # closed-form identity: the multi-poll delay differs from the
    # single-poll adaptive delay by exactly the poll restructuring
    inputs = AnalyticInputs.from_us(
        exchange(PROFILE_11G, 2_000_000, PROFILE_11G.data_rate),
        airtime_multipoll(5, PROFILE_11G, 2_000_000),
        (Fraction(2000),) * 5,
        tuple(
            tuple(Fraction(900 + 13 * i + 7 * k) for i in range(5)) for k in range(3)
        ),
    )
    am_rows, at_rows = position_delays("amtxop", inputs), position_delays("atxop", inputs)
    identity = all(
        am - at == inputs.t_mpoll - i * inputs.price.poll - PROFILE_11G.sifs_us
        for am_row, at_row in zip(am_rows, at_rows)
        for i, (am, at) in enumerate(zip(am_row, at_row), start=1)
    )

    ok = deterministic and budget_ok and conservation and linear and identity
    _check(
        "property-suites",
        ok,
        f"determinism={deterministic} cap-budget={budget_ok} "
        f"conservation={conservation} linearity={linear} identity={identity}",
    )


def test_every_cached_run_keeps_the_rules(lab):
    """check_run over every run the criteria above left in the lab's cache,
    which pytest fills first, as it runs a module top to bottom: the check
    costs no simulation of its own."""
    runs = lab.results()
    assert runs, "run with the criteria above, whose runs this checks"
    for result in runs:
        check_run(result)
