"""Experiment configs, sweep expansion, and result tables.

A YAML config describes one experiment: a trace, a traffic contract, a
PHY, run timing, and the sweep axes. run_experiment expands the sweep
into scenarios (cartesian product: profile, scheduler, stations, loss
rate, speed), runs them, and emits one CSV row per run. Rows carry the
per-run seed so any line can be reproduced in isolation.
"""

import csv
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import yaml

from .analytic import aggregate_delay, aggregate_delay_alt, analytic_inputs
from .engine import Mobility, Scenario, StationSpec, run_scenario
from .errors import ConfigError
from .hcca import SCHEDULERS, compute_si
from .metrics import utilization_improvement
from .phy import PROFILES, airtime_control, airtime_multipoll, poll_gain_ratio
from .traces import Tspec, VideoTrace, derive_tspec, load_trace, trace_stats
from .util import exact

CSV_COLUMNS = (
    "scheduler",
    "phy",
    "n_offered",
    "n_admitted",
    "per",
    "speed_mps",
    "mean_delay_ms",
    "throughput_bps",
    "aggregate_txop_s",
    "util_improvement",
    "seed",
)

_SECTION_KEYS = {
    None: {"name", "scheduler", "phy", "traffic", "tspec", "run", "sweep", "mobility", "output"},
    "phy": {"profile", "control_rate", "data_rate"},
    "traffic": {"trace"},
    "tspec": {
        "derive",
        "mean_msdu_bytes",
        "max_msdu_bytes",
        "mean_rate_bps",
        "delay_bound_s",
        "min_phy_rate_bps",
        "msi_s",
    },
    "run": {"sim_time_s", "warmup_s", "station_start_s", "beacon_interval_s", "t_cp_s", "seed"},
    "sweep": {"stations", "per"},
    "mobility": {"tiers", "speed_mps", "start_s", "initial_distance_ft"},
    "output": {"csv"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    schedulers: tuple
    profiles: tuple              # profile names, e.g. ("11g",)
    control_rate: int | None
    data_rate: int | None
    trace: VideoTrace
    tspec: Tspec
    sim_time_s: Fraction
    warmup_s: Fraction
    station_start_s: Fraction
    beacon_interval_s: Fraction
    t_cp_s: Fraction
    seed: int
    stations_sweep: tuple
    per_sweep: tuple
    mobilities: tuple            # one Mobility per group speed; () without mobility
    csv_path: str | None


def _check_keys(section, mapping):
    allowed = _SECTION_KEYS[section]
    for key in mapping:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key: {where}")


def _axis(mapping, key, default, name):
    """A sweep axis: one value or a non-empty list of them, as a tuple."""
    value = mapping.get(key, default)
    values = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if not values:
        raise ConfigError(f"{name} must list at least one value")
    return values


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    _check_keys(None, doc)

    for section in ("phy", "traffic", "run"):
        if section not in doc:
            raise ConfigError(f"{path}: missing section {section!r}")

    phy = doc["phy"]
    _check_keys("phy", phy)
    profiles = _axis(phy, "profile", "11g", "phy.profile")
    for p in profiles:
        if p not in PROFILES:
            raise ConfigError(f"phy.profile: unknown profile {p!r}")

    traffic = doc["traffic"]
    _check_keys("traffic", traffic)
    if "trace" not in traffic:
        raise ConfigError("traffic.trace is required")
    base = os.path.dirname(os.path.abspath(path))
    trace_path = traffic["trace"]
    if not os.path.isabs(trace_path):
        trace_path = os.path.normpath(os.path.join(base, trace_path))

    run = doc["run"]
    _check_keys("run", run)

    sweep = doc.get("sweep", {})
    _check_keys("sweep", sweep)

    output = doc.get("output", {})
    _check_keys("output", output)

    mobilities = ()
    if "mobility" in doc:
        m = doc["mobility"]
        _check_keys("mobility", m)
        tiers = tuple((exact(d), int(r)) for d, r in m["tiers"])
        start_s, distance_ft = exact(m.get("start_s", 0)), exact(m.get("initial_distance_ft", 0))
        mobilities = tuple(
            Mobility(tiers, exact(speed), start_s, distance_ft)
            for speed in _axis(m, "speed_mps", 0, "mobility.speed_mps")
        )

    # parsed once here; every scenario of the experiment shares it
    trace = load_trace(trace_path)
    tspec = _build_tspec(doc.get("tspec", {"derive": True}), trace)

    return ExperimentConfig(
        name=doc.get("name", os.path.splitext(os.path.basename(path))[0]),
        schedulers=_axis(doc, "scheduler", SCHEDULERS, "scheduler"),
        profiles=profiles,
        control_rate=int(phy["control_rate"]) if "control_rate" in phy else None,
        data_rate=int(phy["data_rate"]) if "data_rate" in phy else None,
        trace=trace,
        tspec=tspec,
        sim_time_s=exact(run["sim_time_s"]),
        warmup_s=exact(run.get("warmup_s", 0)),
        station_start_s=exact(run.get("station_start_s", 0)),
        beacon_interval_s=exact(run.get("beacon_interval_s", "0.12")),
        t_cp_s=exact(run.get("t_cp_s", 0)),
        seed=int(run.get("seed", 0)),
        stations_sweep=tuple(int(n) for n in _axis(sweep, "stations", 1, "sweep.stations")),
        per_sweep=tuple(float(p) for p in _axis(sweep, "per", 0.0, "sweep.per")),
        mobilities=mobilities,
        csv_path=output.get("csv"),
    )


def _build_tspec(section, trace) -> Tspec:
    _check_keys("tspec", section)
    explicit = {k: v for k, v in section.items() if k != "derive"}
    delay_bound_s = exact(explicit.pop("delay_bound_s", "0.08"))
    min_rate_bps = int(explicit.pop("min_phy_rate_bps", 11_000_000))
    msi_s = exact(explicit.pop("msi_s", "0.04"))
    if section.get("derive"):
        derived = derive_tspec(
            trace_stats(trace),
            max(trace.sizes),
            delay_bound_s=delay_bound_s,
            min_rate_bps=min_rate_bps,
            msi_s=msi_s,
        )
        if explicit:
            raise ConfigError(
                f"tspec.derive conflicts with explicit keys: {sorted(explicit)}"
            )
        return derived
    required = {"mean_msdu_bytes", "max_msdu_bytes", "mean_rate_bps"}
    missing = required - set(explicit)
    if missing:
        raise ConfigError(f"tspec is missing keys: {sorted(missing)}")
    return Tspec(
        mean_msdu_bytes=int(explicit["mean_msdu_bytes"]),
        max_msdu_bytes=int(explicit["max_msdu_bytes"]),
        mean_rate_bps=exact(explicit["mean_rate_bps"]),
        delay_bound_s=delay_bound_s,
        min_phy_rate_bps=min_rate_bps,
        msi_s=msi_s,
    )


def expand_scenarios(config: ExperimentConfig):
    """Cartesian sweep in a fixed order so run seeds are reproducible."""
    scenarios = []
    index = 0
    for profile_name, scheduler, n, per, mob in itertools.product(
        config.profiles, config.schedulers, config.stations_sweep,
        config.per_sweep, config.mobilities or (None,),
    ):
        stations = tuple(
            StationSpec(
                aid=i + 1,
                trace=config.trace,
                tspec=config.tspec,
                start_s=config.station_start_s,
            )
            for i in range(n)
        )
        scenarios.append(
            Scenario(
                name=f"{config.name}[{index}]",
                scheduler=scheduler,
                profile=PROFILES[profile_name],
                stations=stations,
                sim_time_s=config.sim_time_s,
                beacon_interval_s=config.beacon_interval_s,
                t_cp_s=config.t_cp_s,
                warmup_s=config.warmup_s,
                control_rate=config.control_rate,
                data_rate=config.data_rate,
                per=per,
                seed=config.seed + index,
                mobility=mob,
            )
        )
        index += 1
    return scenarios


def _row_from_result(result):
    report = result.report()
    sc = result.scenario
    speed = sc.mobility.speed_mps if sc.mobility else None
    return {
        "scheduler": sc.scheduler,
        "phy": sc.profile.name,
        "n_offered": result.n_offered,
        "n_admitted": result.n_admitted,
        "per": sc.per,
        "speed_mps": float(speed) if speed is not None else None,
        "mean_delay_ms": report.mean_delay_ms,
        "throughput_bps": report.throughput_bps,
        "aggregate_txop_s": report.aggregate_txop_s,
        "util_improvement": None,
        "seed": sc.seed,
    }


def _fill_utilization(rows):
    """Relative TXOP saving versus the reference scheduler run with the
    same PHY, population, loss rate, and speed. Reference rows get 0;
    rows with no reference stay blank."""
    baseline = {}
    for row in rows:
        if row["scheduler"] == "hcca":
            key = (row["phy"], row["n_offered"], row["per"], row["speed_mps"])
            baseline[key] = row["aggregate_txop_s"]
    for row in rows:
        key = (row["phy"], row["n_offered"], row["per"], row["speed_mps"])
        if row["scheduler"] == "hcca":
            row["util_improvement"] = 0.0
        elif key in baseline and baseline[key] > 0:
            row["util_improvement"] = float(
                utilization_improvement(baseline[key], row["aggregate_txop_s"])
            )


def _write_table(rows, path, columns):
    """One CSV: a header of columns, then one line per row (csv writes
    None as an empty field)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[col] for col in columns] for row in rows)


def write_csv(rows, path):
    _write_table(rows, path, CSV_COLUMNS)


def _run_all(scenarios, jobs):
    """Results in scenario order, over jobs worker processes when jobs > 1.
    run_scenario is looked up at call time, so it can be swapped out."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_scenario, scenarios))
    return [run_scenario(sc) for sc in scenarios]


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    """Run the full sweep; returns the result rows and writes the CSV
    when the config names one."""
    results = _run_all(expand_scenarios(config), jobs)
    rows = [_row_from_result(r) for r in results]
    _fill_utilization(rows)
    if config.csv_path:
        write_csv(rows, config.csv_path)
    return rows


def emit_table2(profile, control_rate=None, n_max=12):
    """Polling-airtime comparison rows: one poll per station versus a
    single multi-poll, for 1..n_max stations."""
    t_poll = airtime_control(profile, control_rate)
    return [(n, n * t_poll, airtime_multipoll(n, profile, control_rate),
             poll_gain_ratio(n, profile, control_rate)) for n in range(1, n_max + 1)]


VALIDATION_COLUMNS = ("scheduler", "n", "model_ms", "sim_ms", "rel_err", "model_alt_ms")


def validate_analytic(config: ExperimentConfig, jobs: int = 1):
    """Closed-form delay versus simulated delay over the sweep.

    The model and the simulator must see the same measured window: the
    stations start at the warmup boundary, so measured frames are the
    trace prefix and the model walks the same per-interval sizes."""
    if config.warmup_s != config.station_start_s:
        raise ConfigError("validation needs station_start_s == warmup_s")
    if config.mobilities:
        raise ConfigError("validation needs a fixed data rate: the model has no mobility")
    for name in config.profiles:
        data_rate = PROFILES[name].data_rate if config.data_rate is None else config.data_rate
        if data_rate != config.tspec.min_phy_rate_bps:
            raise ConfigError(
                "validation needs tspec.min_phy_rate_bps equal to the "
                f"operative data rate ({data_rate})"
            )
    si = compute_si(config.beacon_interval_s, config.tspec.msi_s)
    if config.sim_time_s - config.warmup_s < si:
        raise ConfigError(
            f"validation needs a measured window of at least one service interval ({float(si):g} s)"
        )
    results = _run_all(expand_scenarios(config), jobs)

    rows = []
    for result in results:
        sc = result.scenario
        n = len(sc.stations)
        si = result.si_s
        report = result.report()
        if not report.n_delivered:
            continue
        m_intervals = int((sc.sim_time_s - sc.warmup_s) / si)
        inputs = analytic_inputs(
            config.trace, n, config.tspec, si, sc.profile,
            control_rate=sc.control_rate,
            m_intervals=m_intervals,
        )
        primary = aggregate_delay(sc.scheduler, inputs)
        model_us = primary / n
        alt_us = aggregate_delay_alt(inputs, primary) / n
        sim_ms = report.mean_delay_ms
        model_ms = float(model_us) / 1000
        rows.append(
            {
                "scheduler": sc.scheduler,
                "n": n,
                "model_ms": model_ms,
                "sim_ms": sim_ms,
                "rel_err": abs(model_ms - sim_ms) / sim_ms,
                "model_alt_ms": float(alt_us) / 1000,
            }
        )
    return rows


def write_validation_csv(rows, path):
    _write_table(rows, path, VALIDATION_COLUMNS)
