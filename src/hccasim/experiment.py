"""Experiment configs and result tables.

A YAML config describes one experiment: a trace, a traffic contract, a
PHY, run timing, and the sweep axes. load_config expands the sweep into
scenarios (cartesian product: profile, scheduler, stations, loss rate,
speed); run_experiment and validate_analytic run them, emit one row per
run and write the rows to the config's output.csv when it names one. Rows
carry the per-run seed so any line can be reproduced in isolation."""

import csv
import itertools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

import yaml

from .analytic import aggregate_delay, aggregate_delay_alt, analytic_inputs
from .engine import Mobility, Scenario, StationSpec, run_scenario
from .errors import ConfigError
from .hcca import SCHEDULERS, compute_si
from .metrics import utilization_improvement
from .phy import PROFILES, airtime_control, airtime_multipoll
from .traces import Tspec, derive_tspec, load_trace, trace_stats
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
    """An experiment: the scenarios of its sweep in run order, and the CSV
    its rows go to (None: not written)."""

    scenarios: tuple
    csv_path: str | None


def _check_keys(section, mapping):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be a mapping")
    allowed = _SECTION_KEYS[section]
    for key in mapping:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key: {where}")


def _convert(where, convert, value):
    """convert(value), or a ConfigError naming the key the value is under."""
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: invalid value {value!r}") from None


def _number(value):
    """value as an exact number; a bool (YAML's true, false, yes, no) raises."""
    if isinstance(value, bool):
        raise TypeError(value)
    return exact(value)


def _integer(value):
    """value as an int; a bool or a value with a fractional part raises."""
    number = _number(value)
    if number.denominator != 1:
        raise ValueError(value)
    return int(number)


_REQUIRED = object()


def _value(mapping, where, convert, default=_REQUIRED):
    """The value of key where ("section.key") in mapping through convert;
    a missing key gives default as is."""
    key = where.rpartition(".")[2]
    if key in mapping:
        return _convert(where, convert, mapping[key])
    if default is _REQUIRED:
        raise ConfigError(f"{where} is required")
    return default


def _axis(mapping, where, convert, default):
    """A sweep axis: one value or a non-empty list of them, the default
    too, each through convert, as a tuple."""
    value = mapping.get(where.rpartition(".")[2], default)
    values = value if isinstance(value, (list, tuple)) else (value,)
    if not values:
        raise ConfigError(f"{where} must list at least one value")
    return tuple(_convert(where, convert, v) for v in values)


def load_config(path) -> ExperimentConfig:
    """The experiment a YAML config describes. Its sweep is the cartesian
    product of profile, scheduler, stations, loss rate and speed, in that
    order, and scenario i runs with seed run.seed + i, so any row can be
    reproduced in isolation."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            at = f" at line {mark.line + 1}" if mark else ""
            raise ConfigError(f"{path}: not valid YAML{at}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    _check_keys(None, doc)
    for section in ("phy", "traffic", "run"):
        if section not in doc:
            raise ConfigError(f"{path}: missing section {section!r}")
    sections = {section: doc.get(section, {}) for section in _SECTION_KEYS if section}
    sections["tspec"] = doc.get("tspec", {"derive": True})
    for section, mapping in sections.items():
        _check_keys(section, mapping)
    phy, run, sweep = sections["phy"], sections["run"], sections["sweep"]

    trace_path = _value(sections["traffic"], "traffic.trace", os.fspath)
    if not os.path.isabs(trace_path):
        base = os.path.dirname(os.path.abspath(path))
        trace_path = os.path.normpath(os.path.join(base, trace_path))
    # parsed once here; every scenario of the experiment shares it
    trace = load_trace(trace_path)
    tspec = _build_tspec(sections["tspec"], trace)

    mobilities = (None,)
    if "mobility" in doc:
        m = sections["mobility"]
        tiers = _value(m, "mobility.tiers",
                       lambda ts: tuple((_number(d), _integer(r)) for d, r in ts))
        start_s = _value(m, "mobility.start_s", _number, Fraction(0))
        distance_ft = _value(m, "mobility.initial_distance_ft", _number, Fraction(0))
        mobilities = tuple(
            Mobility(tiers, speed, start_s, distance_ft)
            for speed in _axis(m, "mobility.speed_mps", _number, 0)
        )

    station_start_s = _value(run, "run.station_start_s", _number, Fraction(0))
    counts = _axis(sweep, "sweep.stations", _integer, 1)
    stations = {
        n: tuple(StationSpec(aid=i + 1, trace=trace, tspec=tspec, start_s=station_start_s)
                 for i in range(n))
        for n in counts
    }
    shared = dict(
        sim_time_s=_value(run, "run.sim_time_s", _number),
        beacon_interval_s=_value(run, "run.beacon_interval_s", _number, Fraction("0.12")),
        t_cp_s=_value(run, "run.t_cp_s", _number, Fraction(0)),
        warmup_s=_value(run, "run.warmup_s", _number, Fraction(0)),
        control_rate=_value(phy, "phy.control_rate", _integer, None),
        data_rate=_value(phy, "phy.data_rate", _integer, None),
    )
    name = _value(doc, "name", str, os.path.splitext(os.path.basename(path))[0])
    seed = _value(run, "run.seed", _integer, 0)
    sweep_axes = itertools.product(
        _axis(phy, "phy.profile", PROFILES.__getitem__, "11g"),
        _axis(doc, "scheduler", str, SCHEDULERS),
        counts,
        _axis(sweep, "sweep.per", lambda v: float(_number(v)), 0.0),
        mobilities,
    )
    scenarios = tuple(
        Scenario(name=f"{name}[{i}]", scheduler=scheduler, profile=profile,
                 stations=stations[n], per=per, seed=seed + i, mobility=mobility, **shared)
        for i, (profile, scheduler, n, per, mobility) in enumerate(sweep_axes)
    )
    return ExperimentConfig(scenarios, _value(sections["output"], "output.csv", os.fspath, None))


def _build_tspec(section, trace) -> Tspec:
    delay_bound_s = _value(section, "tspec.delay_bound_s", _number, Fraction("0.08"))
    min_rate_bps = _value(section, "tspec.min_phy_rate_bps", _integer, 11_000_000)
    msi_s = _value(section, "tspec.msi_s", _number, Fraction("0.04"))
    derive = section.get("derive", False)
    if not isinstance(derive, bool):
        raise ConfigError(f"tspec.derive: invalid value {derive!r}")
    if derive:
        explicit = {"mean_msdu_bytes", "max_msdu_bytes", "mean_rate_bps"} & set(section)
        if explicit:
            raise ConfigError(
                f"tspec.derive conflicts with explicit keys: {sorted(explicit)}"
            )
        return derive_tspec(
            trace_stats(trace),
            max(trace.sizes),
            delay_bound_s=delay_bound_s,
            min_rate_bps=min_rate_bps,
            msi_s=msi_s,
        )
    return Tspec(
        mean_msdu_bytes=_value(section, "tspec.mean_msdu_bytes", _integer),
        max_msdu_bytes=_value(section, "tspec.max_msdu_bytes", _integer),
        mean_rate_bps=_value(section, "tspec.mean_rate_bps", _number),
        delay_bound_s=delay_bound_s,
        min_phy_rate_bps=min_rate_bps,
        msi_s=msi_s,
    )


def expand_scenarios(config: ExperimentConfig):
    """The experiment's scenarios, in run order, as a list."""
    return list(config.scenarios)


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
    point = operator.itemgetter("phy", "n_offered", "per", "speed_mps")
    baseline = {point(row): row["aggregate_txop_s"] for row in rows if row["scheduler"] == "hcca"}
    for row in rows:
        base = baseline.get(point(row), 0)
        if row["scheduler"] == "hcca":
            row["util_improvement"] = 0.0
        elif base > 0:
            row["util_improvement"] = float(utilization_improvement(base, row["aggregate_txop_s"]))


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


def run_experiment(config: ExperimentConfig):
    """Run the full sweep; returns the result rows and writes the CSV
    when the config names one."""
    results = [run_scenario(sc) for sc in config.scenarios]
    rows = [_row_from_result(r) for r in results]
    _fill_utilization(rows)
    if config.csv_path:
        write_csv(rows, config.csv_path)
    return rows


def emit_table2(profile, control_rate=None, n_max=12):
    """Polling-airtime comparison rows for 1..n_max stations: one poll per
    station, a single multi-poll, and the multi-poll's relative saving,
    clamped at zero (one station's multi-poll is longer than its poll)."""
    t_poll = airtime_control(profile, control_rate)
    rows = [(n, n * t_poll, airtime_multipoll(n, profile, control_rate)) for n in range(1, n_max + 1)]
    return [(n, polls, multi, max(1 - multi / polls, 0)) for n, polls, multi in rows]


VALIDATION_COLUMNS = ("scheduler", "n", "model_ms", "sim_ms", "rel_err", "model_alt_ms")


def write_validation_csv(rows, path):
    _write_table(rows, path, VALIDATION_COLUMNS)


def _check_modelable(sc):
    """The model's preconditions on one scenario. The model and the
    simulator must see the same measured window: the stations start at the
    warmup boundary, so measured frames are the trace prefix and the model
    walks the same per-interval sizes."""
    if any(st.start_s != sc.warmup_s for st in sc.stations):
        raise ConfigError("validation needs station_start_s == warmup_s")
    if sc.mobility is not None:
        raise ConfigError("validation needs a fixed data rate: the model has no mobility")
    data_rate = sc.profile.data_rate if sc.data_rate is None else sc.data_rate
    if any(st.tspec.min_phy_rate_bps != data_rate for st in sc.stations):
        raise ConfigError(
            "validation needs tspec.min_phy_rate_bps equal to the "
            f"operative data rate ({data_rate})"
        )
    si = compute_si(sc.beacon_interval_s, min(st.tspec.msi_s for st in sc.stations))
    if sc.sim_time_s - sc.warmup_s < si:
        raise ConfigError(
            f"validation needs a measured window of at least one service interval ({float(si):g} s)"
        )


def validate_analytic(config: ExperimentConfig):
    """Closed-form delay versus simulated delay, one row per scenario that
    delivered a frame in its measured window; writes the rows (only the
    header when there are none) to the CSV the config names. Every
    scenario is checked before any runs. The model covers the streams the
    scenario admitted, with the trace and TSPEC its stations share; the n
    column is the offered count."""
    for sc in config.scenarios:
        _check_modelable(sc)
    rows = []
    for result in [run_scenario(sc) for sc in config.scenarios]:
        sc = result.scenario
        report = result.report()
        if not report.n_delivered:
            continue
        n = result.n_admitted
        si = result.si_s
        spec = sc.stations[0]
        inputs = analytic_inputs(
            spec.trace, n, spec.tspec, si, sc.profile,
            control_rate=sc.control_rate,
            m_intervals=int((sc.sim_time_s - sc.warmup_s) / si),
        )
        primary = aggregate_delay(sc.scheduler, inputs)
        model_ms = float(primary / n) / 1000
        sim_ms = report.mean_delay_ms
        rows.append(
            {
                "scheduler": sc.scheduler,
                "n": result.n_offered,
                "model_ms": model_ms,
                "sim_ms": sim_ms,
                "rel_err": abs(model_ms - sim_ms) / sim_ms,
                "model_alt_ms": float(aggregate_delay_alt(inputs, primary) / n) / 1000,
            }
        )
    if config.csv_path:
        write_validation_csv(rows, config.csv_path)
    return rows

