import csv
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from hccasim import analytic, experiment
from hccasim.cli import main
from hccasim.errors import ConfigError
from hccasim.experiment import (
    CSV_COLUMNS,
    emit_table2,
    expand_scenarios,
    load_config,
    run_experiment,
    validate_analytic,
)
from hccasim.metrics import utilization_improvement
from hccasim.phy import PROFILE_11B, PROFILE_11G
from hccasim.traces import load_trace

ROOT = Path(__file__).resolve().parents[1]
# `hccasim stats` stdout per shipped trace and window, pinned byte for byte
STATS_OUT = json.loads((ROOT / "tests" / "data" / "cli_stats.json").read_text(encoding="ascii"))

MINI = """\
name: mini
scheduler: [hcca, atxop]
phy:
  profile: 11g
  control_rate: 2000000
traffic:
  trace: {trace}
tspec:
  mean_msdu_bytes: 770
  max_msdu_bytes: 1100
  mean_rate_bps: 150000
run:
  sim_time_s: 1
  warmup_s: 0.2
  beacon_interval_s: 0.12
  seed: 40
sweep:
  stations: [1, 2]
{extra}
"""


TSPEC = "tspec:\n  mean_msdu_bytes: 770\n  max_msdu_bytes: 1100\n  mean_rate_bps: 150000"


def mobility(speeds):
    """A mobility section: from 70 ft, a group walking at 5 m/s drops from
    54 to 6 Mb/s about 0.6 s in; at 1 m/s it keeps 54 Mb/s for 3 s."""
    return ("mobility:\n  tiers: [[80, 54000000], [200, 6000000]]\n"
            f"  speed_mps: {speeds}\n  start_s: 0\n  initial_distance_ft: 70")


JP1_LOW = ROOT / "traces" / "jp1_low.txt"
JP1_LOW_HEAD = None   # jp1_low's header and first 25 frames, written once by jp1_low_head


@pytest.fixture(scope="module", autouse=True)
def jp1_low_head(tmp_path_factory):
    """MINI runs 1 s: the 25 frames jp1_low displays in it are all its runs
    read, so MINI's configs name a file of these frames and not the whole
    13 100-frame trace, which takes about 10 ms to parse."""
    global JP1_LOW_HEAD
    JP1_LOW_HEAD = tmp_path_factory.mktemp("traces") / "jp1_low_head.txt"
    JP1_LOW_HEAD.write_text("".join(JP1_LOW.read_text().splitlines(keepends=True)[:27]))


def parsed(text, loader):
    """text's YAML document under loader; for text that is not valid YAML,
    the error's type and the line it names (None when it names none)."""
    try:
        return yaml.load(text, loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        return type(exc), mark and mark.line


def write_config(tmp_path, extra="", body=None):
    """The config body (MINI by default) in tmp_path. A body that derives its
    TSPEC, as VALIDATE does, reads the shipped jp1_low, since the contract is
    derived from every frame; the others read jp1_low's first second. Every
    config written here reads the same under PyYAML's own loader as under
    the one load_config uses."""
    body = body or MINI
    trace = JP1_LOW if "derive: true" in body else JP1_LOW_HEAD
    text = body.format(trace=trace, extra=extra)
    assert parsed(text, yaml.SafeLoader) == parsed(text, experiment._YAML_LOADER)
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        scs = cfg.scenarios

        def axis(values):
            return tuple(dict.fromkeys(values))

        assert [s.name for s in scs] == [f"mini[{i}]" for i in range(4)]
        assert axis(s.scheduler for s in scs) == ("hcca", "atxop")
        assert axis(s.profile.name for s in scs) == ("11g",)
        assert axis(s.control_rate for s in scs) == (2_000_000,)
        assert axis(s.sim_time_s for s in scs) == (1,)
        assert axis(s.warmup_s for s in scs) == (Fraction(1, 5),)
        assert axis(len(s.stations) for s in scs) == (1, 2)
        assert axis(s.per for s in scs) == (0.0,)
        assert axis(s.mobility for s in scs) == (None,)
        assert cfg.csv_path is None
        assert axis(st.tspec.mean_msdu_bytes for s in scs for st in s.stations) == (770,)

    def test_integral_values_read_as_ints(self, tmp_path):
        body = (MINI.replace("control_rate: 2000000", "control_rate: 2000000.0")
                .replace("stations: [1, 2]", "stations: [1.0, '2']")
                .replace("seed: 40", "seed: 4.0e+1"))
        scs = load_config(write_config(tmp_path, body=body)).scenarios
        assert [(s.control_rate, len(s.stations), s.seed) for s in scs] == [
            (2_000_000, 1, 40), (2_000_000, 2, 41), (2_000_000, 1, 42), (2_000_000, 2, 43)]
        assert all(type(s.control_rate) is int and type(s.seed) is int for s in scs)

    def test_unknown_key_named_in_error(self, tmp_path):
        path = write_config(tmp_path, extra="output:\n  csvv: x.csv")
        with pytest.raises(ConfigError, match="output.csvv"):
            load_config(path)

    def test_unknown_sweep_key(self, tmp_path):
        path = write_config(tmp_path, extra="")
        bad = path.read_text().replace("stations:", "stationz:")
        path.write_text(bad)
        with pytest.raises(ConfigError, match="sweep.stationz"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("name: x\nphy: {profile: 11g}\ntraffic: {trace: t.txt}\n")
        with pytest.raises(ConfigError, match="run"):
            load_config(path)

    def test_trace_path_relative_to_config(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        (sub / "t.txt").write_text("0 I 0 100\n1 P 40 100\n")
        body = MINI.replace("{trace}", "t.txt")
        path = sub / "config.yaml"
        path.write_text(body.format(extra=""))
        cfg = load_config(path)
        assert {st.trace for s in cfg.scenarios for st in s.stations} == {load_trace(sub / "t.txt")}

    def test_derived_tspec_matches_trace(self, tmp_path):
        extra = ""
        body = MINI.replace(TSPEC, "tspec:\n  derive: true\n  min_phy_rate_bps: 4000000")
        cfg = load_config(write_config(tmp_path, extra=extra, body=body))
        (tspec,) = {st.tspec for s in cfg.scenarios for st in s.stations}
        assert tspec.mean_msdu_bytes == 765
        assert tspec.max_msdu_bytes == 1100
        assert tspec.mean_rate_bps == 153_000
        assert tspec.min_phy_rate_bps == 4_000_000

    def test_unknown_profile(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("11g", "11n"))
        with pytest.raises(ConfigError, match="11n"):
            load_config(path)


class TestSweepExpansion:
    def test_product_order_and_seeds(self, tmp_path):
        extra = "  per: [0.0, 0.1]"
        cfg = load_config(write_config(tmp_path, extra=extra))
        scenarios = expand_scenarios(cfg)
        combos = [(s.scheduler, len(s.stations), s.per) for s in scenarios]
        assert combos == [
            ("hcca", 1, 0.0), ("hcca", 1, 0.1),
            ("hcca", 2, 0.0), ("hcca", 2, 0.1),
            ("atxop", 1, 0.0), ("atxop", 1, 0.1),
            ("atxop", 2, 0.0), ("atxop", 2, 0.1),
        ]
        assert [s.seed for s in scenarios] == [40 + i for i in range(8)]

    def test_speed_axis_is_the_last_product_axis(self, tmp_path):
        cfg = load_config(write_config(tmp_path, extra=mobility("[1, 5]")))
        scenarios = expand_scenarios(cfg)
        combos = [(s.scheduler, len(s.stations), s.mobility.speed_mps) for s in scenarios]
        assert combos == [
            ("hcca", 1, 1), ("hcca", 1, 5), ("hcca", 2, 1), ("hcca", 2, 5),
            ("atxop", 1, 1), ("atxop", 1, 5), ("atxop", 2, 1), ("atxop", 2, 5),
        ]
        assert [s.seed for s in scenarios] == [40 + i for i in range(8)]
        assert {s.mobility.tiers for s in scenarios} == {((80, 54_000_000), (200, 6_000_000))}
        assert {(s.mobility.start_s, s.mobility.initial_distance_ft) for s in scenarios} == {(0, 70)}

    def test_scalar_speed_is_one_scenario(self, tmp_path):
        cfg = load_config(write_config(tmp_path, extra=mobility("5")))
        assert [s.mobility.speed_mps for s in expand_scenarios(cfg)] == [5] * 4

    def test_sweep_speed_is_unknown(self, tmp_path, capsys):
        path = write_config(tmp_path, extra="  speed_mps: [5]\n" + mobility("5"))
        with pytest.raises(ConfigError, match="unknown config key: sweep.speed_mps"):
            load_config(path)
        assert main(["run", str(path)]) == 2
        assert "sweep.speed_mps" in capsys.readouterr().err

    @pytest.mark.parametrize("name, old, new", [
        ("scheduler", "scheduler: [hcca, atxop]", "scheduler: []"),
        ("phy.profile", "profile: 11g", "profile: []"),
        ("sweep.stations", "stations: [1, 2]", "stations: []"),
        ("sweep.per", "stations: [1, 2]", "stations: [1, 2]\n  per: []"),
        ("mobility.speed_mps", "{extra}", mobility("[]")),
    ], ids=["scheduler", "phy.profile", "sweep.stations", "sweep.per", "mobility.speed_mps"])
    def test_empty_axis_rejected(self, tmp_path, capsys, name, old, new):
        path = write_config(tmp_path, body=MINI.replace(old, new))
        with pytest.raises(ConfigError, match=f"^{name} must list at least one value$"):
            load_config(path)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {name} must list at least one value\n"


class TestRunExperiment:
    def test_rows_and_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        extra = "output:\n  csv: out/rows.csv"
        cfg = load_config(write_config(tmp_path, extra=extra))
        rows = run_experiment(cfg)
        assert len(rows) == 4
        assert set(rows[0]) == set(CSV_COLUMNS)
        for row in rows:
            if row["scheduler"] == "hcca":
                assert row["util_improvement"] == 0.0
            else:
                assert 0 < row["util_improvement"] < 1
            assert row["speed_mps"] is None
            assert row["n_admitted"] == row["n_offered"]
            assert row["mean_delay_ms"] > 0
        with open(tmp_path / "out" / "rows.csv", newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == list(CSV_COLUMNS)
        assert len(got) == 5
        speed_col = got[0].index("speed_mps")
        assert all(line[speed_col] == "" for line in got[1:])

    def test_util_per_speed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        extra = mobility("[1, 5]") + "\noutput:\n  csv: rows.csv"
        rows = run_experiment(load_config(write_config(tmp_path, extra=extra)))
        assert [row["speed_mps"] for row in rows] == [1.0, 5.0] * 4
        baseline = {(row["n_offered"], row["speed_mps"]): row["aggregate_txop_s"]
                    for row in rows if row["scheduler"] == "hcca"}
        # the walk at 5 m/s reaches 6 Mb/s, so the baselines differ per speed
        assert baseline[1, 1.0] != baseline[1, 5.0]
        for row in rows:
            base = baseline[row["n_offered"], row["speed_mps"]]
            assert row["util_improvement"] == float(
                utilization_improvement(base, row["aggregate_txop_s"])
            )
        with open(tmp_path / "rows.csv", newline="") as fh:
            got = list(csv.DictReader(fh))
        assert [line["speed_mps"] for line in got] == ["1.0", "5.0"] * 4

    def test_util_blank_without_baseline(self, tmp_path):
        body = MINI.replace("[hcca, atxop]", "[atxop]")
        cfg = load_config(write_config(tmp_path, body=body))
        rows = run_experiment(cfg)
        assert all(row["util_improvement"] is None for row in rows)

    def test_serial_runs_never_load_multiprocessing(self):
        code = "import sys, hccasim.experiment; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestTable2:
    def test_11g_values(self):
        rows = emit_table2(PROFILE_11G, control_rate=2_000_000, n_max=3)
        assert rows[0] == (1, 264, 284, 0)
        assert rows[1] == (2, 528, 300, Fraction(228, 528))
        assert rows[2][2] == 316
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_11b_values(self):
        rows = emit_table2(PROFILE_11B, control_rate=2_000_000, n_max=2)
        assert rows[0][1] == 336
        assert rows[1] == (2, 672, 372, Fraction(300, 672))

    def test_gain_grows_with_population(self):
        rows = emit_table2(PROFILE_11G, n_max=12)
        gains = [r[3] for r in rows]
        assert gains == sorted(gains)
        assert gains[-1] > Fraction(3, 4)


VALIDATE = """\
name: mini_validate
scheduler: [hcca, atxop, amtxop]
phy:
  profile: 11g
  control_rate: 1000000
  data_rate: 4000000
traffic:
  trace: {trace}
tspec:
  derive: true
  min_phy_rate_bps: 4000000
run:
  sim_time_s: 24
  warmup_s: 20
  station_start_s: 20
  beacon_interval_s: 0.12
  seed: 50
sweep:
  stations: [1, 3]
{extra}
"""


class TestValidateAnalytic:
    def test_model_within_bound_and_below_sim(self, tmp_path):
        cfg = load_config(write_config(tmp_path, body=VALIDATE))
        rows = validate_analytic(cfg)
        assert len(rows) == 6
        for row in rows:
            assert row["rel_err"] < 0.10, row
            assert row["model_ms"] < row["sim_ms"]
            assert row["model_alt_ms"] > row["model_ms"]

    def test_model_covers_the_admitted_streams(self, tmp_path):
        # at 4 Mb/s 12 streams are admitted: the 13th offered one is
        # rejected, so both rows model, and run, the same 12 streams
        body = (VALIDATE.replace("[hcca, atxop, amtxop]", "[hcca]")
                .replace("stations: [1, 3]", "stations: [12, 13]"))
        rows = validate_analytic(load_config(write_config(tmp_path, body=body)))
        assert [row["n"] for row in rows] == [12, 13]
        assert rows[0]["model_ms"] == rows[1]["model_ms"]
        assert rows[0]["sim_ms"] == rows[1]["sim_ms"]

    def test_requires_aligned_start(self, tmp_path):
        body = VALIDATE.replace("station_start_s: 20", "station_start_s: 0")
        cfg = load_config(write_config(tmp_path, body=body))
        with pytest.raises(ConfigError, match="station_start_s"):
            validate_analytic(cfg)

    def test_requires_matching_rate(self, tmp_path):
        body = VALIDATE.replace("  min_phy_rate_bps: 4000000", "  min_phy_rate_bps: 6000000")
        cfg = load_config(write_config(tmp_path, body=body))
        with pytest.raises(ConfigError, match="data rate"):
            validate_analytic(cfg)

    @pytest.mark.parametrize("old, new", [
        ("  min_phy_rate_bps: 4000000", "  min_phy_rate_bps: 6000000"),
        ("  data_rate: 4000000\n", ""),    # the profile's 54 Mb/s is the data rate
    ], ids=["tspec-rate", "profile-rate"])
    def test_rate_checked_before_any_run(self, tmp_path, monkeypatch, old, new):
        cfg = load_config(write_config(tmp_path, body=VALIDATE.replace(old, new)))

        def no_run(scenario):
            raise AssertionError(f"{scenario.name} ran before the rate check")

        monkeypatch.setattr(experiment, "run_scenario", no_run)
        with pytest.raises(ConfigError, match="data rate"):
            validate_analytic(cfg)

    def test_mobility_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        # the model prices payload at one rate; a walking group changes it
        extra = ("mobility:\n  tiers: [[80, 4000000], [200, 1000000]]\n"
                 "  speed_mps: 10\n  start_s: 20\n  initial_distance_ft: 30")
        path = write_config(tmp_path, body=VALIDATE, extra=extra)

        def no_run(scenario):
            raise AssertionError(f"{scenario.name} ran before the mobility check")

        monkeypatch.setattr(experiment, "run_scenario", no_run)
        with pytest.raises(ConfigError, match="mobility"):
            validate_analytic(load_config(path))
        assert main(["validate-analytic", str(path)]) == 2
        assert "mobility" in capsys.readouterr().err

    def test_one_model_evaluation_per_row(self, tmp_path, monkeypatch):
        body = VALIDATE.replace("stations: [1, 3]", "stations: [1]")
        cfg = load_config(write_config(tmp_path, body=body))
        evaluated = []
        real = analytic._walk

        def counted(scheduler, inputs):
            evaluated.append(scheduler)
            return real(scheduler, inputs)

        monkeypatch.setattr(analytic, "_walk", counted)
        rows = validate_analytic(cfg)
        assert [row["scheduler"] for row in rows] == evaluated == ["hcca", "atxop", "amtxop"]


@pytest.mark.parametrize("sweep, body", [
    (run_experiment, MINI),
    (validate_analytic, VALIDATE),
], ids=["run", "validate"])
def test_one_run_held_at_a_time(tmp_path, monkeypatch, sweep, body):
    # each run is reduced to its row before the next one starts
    cfg = load_config(write_config(tmp_path, body=body))
    real = experiment.run_scenario
    previous = []

    def run(scenario):
        assert not previous or previous[-1]() is None, f"a run is alive as {scenario.name} starts"
        result = real(scenario)
        previous.append(weakref.ref(result))
        return result

    monkeypatch.setattr(experiment, "run_scenario", run)
    assert len(sweep(cfg)) == len(cfg.scenarios) == len(previous)


class TestYamlLoaders:
    """load_config reads YAML with libyaml when PyYAML has it, else with
    PyYAML's own loader; a config reads the same under either."""

    @pytest.mark.parametrize("preset", sorted(p.name for p in (ROOT / "presets").glob("*.yaml")))
    def test_presets_read_the_same(self, preset):
        text = (ROOT / "presets" / preset).read_text(encoding="utf-8")
        assert parsed(text, yaml.SafeLoader) == parsed(text, experiment._YAML_LOADER)

    @pytest.mark.parametrize("body, extra", [(MINI, mobility("[1, 5]")), (VALIDATE, "")],
                             ids=["mini-mobility", "validate"])
    def test_fallback_builds_the_same_experiment(self, tmp_path, monkeypatch, body, extra):
        path = write_config(tmp_path, extra=extra, body=body)
        config = load_config(path)
        monkeypatch.setattr(experiment, "_YAML_LOADER", yaml.SafeLoader)
        assert load_config(path) == config

    @pytest.mark.parametrize("old, new, at", [
        ("[hcca, atxop]", "[hcca, atxop", " at line 3"),
        ("  control_rate: 2000000", "   control_rate: 2000000", " at line 5"),
        ("seed: 40", "seed: 'x", " at line 20"),
        ("name: mini", "name: mini\x07", ""),
    ], ids=["unclosed-flow", "indentation", "unclosed-quote", "control-character"])
    def test_malformed_yaml_is_the_same_error_under_both(self, tmp_path, capsys, monkeypatch,
                                                         old, new, at):
        path = write_config(tmp_path, body=MINI.replace(old, new))
        for loader in (experiment._YAML_LOADER, yaml.SafeLoader):
            monkeypatch.setattr(experiment, "_YAML_LOADER", loader)
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {path}: not valid YAML{at}\n"


class TestCli:
    def test_stats_exit_zero(self, capsys):
        assert main(["stats", str(JP1_LOW)]) == 0
        out = capsys.readouterr().out
        assert "mean size:         765.00 bytes" in out

    @pytest.mark.parametrize("case", sorted(STATS_OUT))
    def test_stats_output_unchanged(self, capsys, case):
        name, _, window = case.split()
        assert main(["stats", str(ROOT / "traces" / f"{name}.txt"), "--window", window]) == 0
        assert capsys.readouterr().out == STATS_OUT[case]

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/no/such/trace.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def rejected(capsys, argv):
        """The one stderr line of a command line that argparse rejects."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        return errors[0]

    @pytest.mark.parametrize("window", ["0", "-1", "abc", "1/0", "nan"])
    def test_stats_rejects_a_window_that_is_not_positive(self, capsys, window):
        trace = str(ROOT / "traces" / "jp1_high.txt")
        assert "--window" in self.rejected(capsys, ["stats", trace, "--window", window])

    @pytest.mark.parametrize("command", ["run", "validate-analytic"])
    @pytest.mark.parametrize("jobs", ["2", "0", "-1", "two"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, monkeypatch, command, jobs):
        """Scenarios run one after another and no subcommand takes --jobs,
        whatever its value."""
        monkeypatch.setattr("hccasim.cli.run_experiment", None)      # no scenario may run
        monkeypatch.setattr("hccasim.cli.validate_analytic", None)
        path = write_config(tmp_path)
        error = self.rejected(capsys, [command, str(path), "--jobs", jobs])
        assert f"unrecognized arguments: --jobs {jobs}" in error

    @pytest.mark.parametrize("bound", ["nan", "-1", "0", "inf"])
    def test_validate_rejects_a_bound_that_is_not_finite_and_positive(self, tmp_path, capsys,
                                                                      monkeypatch, bound):
        monkeypatch.setattr("hccasim.cli.validate_analytic", None)   # no scenario may run
        path = write_config(tmp_path, body=VALIDATE)
        assert "--bound" in self.rejected(capsys, ["validate-analytic", str(path), "--bound", bound])

    def test_table2_rejects_n_max_below_one(self, capsys):
        for n_max in ("0", "-3"):
            assert "--n-max" in self.rejected(capsys, ["table2", "--n-max", n_max])

    def test_table2_rejects_a_control_rate_below_one(self, capsys):
        for rate in ("0", "-2000000"):
            assert "--control-rate" in self.rejected(capsys, ["table2", "--control-rate", rate])

    @pytest.mark.parametrize("phy", ["control_rate: 0", "control_rate: 2000000\n  data_rate: 0"])
    def test_run_rejects_a_rate_that_is_not_positive(self, tmp_path, capsys, phy):
        path = write_config(tmp_path, body=MINI.replace("control_rate: 2000000", phy))
        assert main(["run", str(path)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error:") and "rate must be > 0" in errors[0]

    @pytest.mark.parametrize("old, new, message", [
        ("{extra}", mobility("5").replace("  tiers: [[80, 54000000], [200, 6000000]]\n", ""),
         "mobility.tiers is required"),
        ("stations: [1, 2]", "stations: [three]", "sweep.stations: invalid value 'three'"),
        ("stations: [1, 2]", "stations: [1, 2]\n  per: [x]", "sweep.per: invalid value 'x'"),
        ("run:\n  sim_time_s: 1\n  warmup_s: 0.2\n  beacon_interval_s: 0.12\n  seed: 40",
         "run: 5", "run must be a mapping"),
        ("sim_time_s: 1", "sim_time_s: abc", "run.sim_time_s: invalid value 'abc'"),
        ("control_rate: 2000000", "control_rate: fast", "phy.control_rate: invalid value 'fast'"),
        ("{extra}", mobility("5").replace("[80, 54000000]", "[80]"),
         "mobility.tiers: invalid value [[80], [200, 6000000]]"),
        ("[hcca, atxop]", "[hcca, atxop", "not valid YAML at line"),
        ("stations: [1, 2]", "stations: [2.5]", "sweep.stations: invalid value 2.5"),
        ("seed: 40", "seed: 6.7", "run.seed: invalid value 6.7"),
        ("control_rate: 2000000", "control_rate: true", "phy.control_rate: invalid value True"),
        ("control_rate: 2000000", "control_rate: 2000000\n  data_rate: 54000000.5",
         "phy.data_rate: invalid value 54000000.5"),
        ("max_msdu_bytes: 1100", "max_msdu_bytes: 1100.5",
         "tspec.max_msdu_bytes: invalid value 1100.5"),
        ("mean_rate_bps: 150000", "mean_rate_bps: 150000\n  min_phy_rate_bps: false",
         "tspec.min_phy_rate_bps: invalid value False"),
        ("{extra}", mobility("5").replace("[200, 6000000]", "[200, 6000000.25]"),
         "mobility.tiers: invalid value [[80, 54000000], [200, 6000000.25]]"),
        ("stations: [1, 2]", "stations: [1, 2]\n  per: [false]", "sweep.per: invalid value False"),
        ("warmup_s: 0.2", "warmup_s: false", "run.warmup_s: invalid value False"),
        ("beacon_interval_s: 0.12", "beacon_interval_s: true",
         "run.beacon_interval_s: invalid value True"),
        ("{extra}", mobility("true"), "mobility.speed_mps: invalid value True"),
        ("{extra}", mobility("5").replace("[80, 54000000]", "[true, 54000000]"),
         "mobility.tiers: invalid value [[True, 54000000], [200, 6000000]]"),
        (TSPEC, 'tspec:\n  derive: "false"', "tspec.derive: invalid value 'false'"),
        (TSPEC, "tspec:\n  derive: 1", "tspec.derive: invalid value 1"),
    ], ids=["no-tiers", "stations", "per", "run-not-mapping", "sim-time", "control-rate",
            "short-tier", "yaml-syntax", "fractional-stations", "fractional-seed",
            "bool-control-rate", "fractional-data-rate", "fractional-msdu-bytes",
            "bool-min-phy-rate", "fractional-tier-rate", "bool-per", "bool-warmup",
            "bool-beacon-interval", "bool-speed", "bool-tier-distance", "string-derive",
            "int-derive"])
    def test_malformed_value_is_one_error_line(self, tmp_path, capsys, old, new, message):
        path = write_config(tmp_path, body=MINI.replace(old, new))
        assert main(["run", str(path)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ") and message in errors[0]

    @pytest.mark.parametrize("case", ["stats-directory", "trace-directory", "csv-under-file"])
    def test_path_error_is_one_error_line(self, tmp_path, capsys, case):
        """A directory where a file is read, or a file where a directory is
        made: exit 2 with one error line, not a traceback."""
        if case == "stats-directory":
            argv = ["stats", str(ROOT / "traces")]
        elif case == "trace-directory":
            body = MINI.replace("{trace}", str(ROOT / "traces"))
            argv = ["run", str(write_config(tmp_path, body=body))]
        else:
            (tmp_path / "plain.txt").write_text("")
            extra = f"output:\n  csv: {tmp_path / 'plain.txt' / 'out.csv'}"
            argv = ["run", str(write_config(tmp_path, extra=extra))]
        assert main(argv) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["stats", "run"])
    def test_non_ascii_trace_is_one_error_line(self, tmp_path, capsys, command):
        trace = tmp_path / "t.txt"
        trace.write_bytes(b"# caf\xc3\xa9\n0 I 0 100\n")
        if command == "stats":
            argv = ["stats", str(trace)]
        else:
            argv = ["run", str(write_config(tmp_path, body=MINI.replace("{trace}", str(trace))))]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {trace}: byte 0xc3 at offset 5 is not ASCII\n"

    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        data = MINI.format(trace="caf\xe9.txt", extra="").encode("latin-1")
        path.write_bytes(data)
        assert main(["run", str(path)]) == 2
        offset = data.index(b"\xe9")
        assert capsys.readouterr().err == f"error: {path}: byte 0xe9 at offset {offset} is not UTF-8\n"

    def test_run_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, extra="output:\n  csvv: x")
        assert main(["run", str(path)]) == 2
        assert "output.csvv" in capsys.readouterr().err

    def test_run_and_table2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, extra="output:\n  csv: rows.csv")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scheduler" in out and "wrote rows.csv" in out
        assert (tmp_path / "rows.csv").exists()
        assert main(["table2", "--n-max", "4"]) == 0
        assert "multipoll" in capsys.readouterr().out

    @staticmethod
    def validate_config(tmp_path):
        """VALIDATE at 2 stations, its rows written to v.csv in tmp_path."""
        body = VALIDATE.replace("stations: [1, 3]", "stations: [2]")
        return write_config(tmp_path, body=body, extra=f"output:\n  csv: {tmp_path / 'v.csv'}")

    def test_validate_gate(self, tmp_path, capsys):
        path = self.validate_config(tmp_path)
        assert main(["validate-analytic", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert f"wrote {tmp_path / 'v.csv'}" in out
        assert (tmp_path / "v.csv").exists()
        # an absurdly tight bound must flip the exit code
        assert main(["validate-analytic", str(path), "--bound", "0.0001"]) == 1

    def test_validate_writes_output_csv(self, tmp_path):
        # sim_ms - model_ms is the same 0.28 ms under every scheduler: the
        # model leaves out the same header terms, and walks interval 0 as the
        # engine grants it
        assert main(["validate-analytic", str(self.validate_config(tmp_path))]) == 0
        assert (tmp_path / "v.csv").read_bytes() == (
            b"scheduler,n,model_ms,sim_ms,rel_err,model_alt_ms\r\n"
            b"hcca,2,3.4843800000000003,3.76438,0.0743814386432825,5.02676\r\n"
            b"atxop,2,3.1507899999999998,3.43079,0.08161385570087364,4.69317\r\n"
            b"amtxop,2,3.00879,3.28879,0.08513769501853273,4.55117\r\n"
        )

    def test_validate_csv_flag_is_gone(self, tmp_path, capsys):
        path = self.validate_config(tmp_path)
        argv = ["validate-analytic", str(path), "--csv", str(tmp_path / "other.csv")]
        assert "--csv" in self.rejected(capsys, argv)
        assert not (tmp_path / "other.csv").exists()

    def test_validate_window_shorter_than_one_si(self, tmp_path, capsys, monkeypatch):
        # 20 ms measured against a 40 ms SI: no whole interval to model
        path = write_config(tmp_path, body=VALIDATE.replace("sim_time_s: 24", "sim_time_s: 20.02"))

        def no_run(scenario):
            raise AssertionError(f"{scenario.name} ran before the window check")

        monkeypatch.setattr(experiment, "run_scenario", no_run)
        assert main(["validate-analytic", str(path)]) == 2
        assert "service interval" in capsys.readouterr().err

    def test_validate_window_not_whole_sis(self, tmp_path, capsys, monkeypatch):
        # 4.02 s measured against a 40 ms SI: the run would measure the half
        # interval at its end, which the model does not walk
        path = write_config(tmp_path, body=VALIDATE.replace("sim_time_s: 24", "sim_time_s: 24.02"))

        def no_run(scenario):
            raise AssertionError(f"{scenario.name} ran before the window check")

        monkeypatch.setattr(experiment, "run_scenario", no_run)
        assert main(["validate-analytic", str(path)]) == 2
        assert "whole number of service intervals" in capsys.readouterr().err

    def test_validate_with_no_rows_fails(self, tmp_path, capsys):
        # every frame is displayed after the 4 s window ends: nothing is compared
        late = tmp_path / "late.txt"
        late.write_text("".join(f"{k} I {5000 + 40 * k} 800\n" for k in range(50)))
        path = write_config(tmp_path, body=VALIDATE.replace("{trace}", str(late)),
                            extra=f"output:\n  csv: {tmp_path / 'v.csv'}")
        assert main(["validate-analytic", str(path)]) == 1
        captured = capsys.readouterr()
        assert "max relative error" not in captured.out
        assert len(captured.err.splitlines()) == 1 and "no scenario" in captured.err
        assert (tmp_path / "v.csv").read_bytes() == b"scheduler,n,model_ms,sim_ms,rel_err,model_alt_ms\r\n"

    @pytest.mark.parametrize("command", ["run", "validate-analytic"])
    def test_trace_file_parsed_once(self, tmp_path, monkeypatch, command):
        # the derived TSPEC and every scenario share the one parse
        calls = []
        monkeypatch.setattr(experiment, "load_trace", lambda p: calls.append(p) or load_trace(p))
        path = write_config(tmp_path, body=VALIDATE.replace("stations: [1, 3]", "stations: [1]"))
        assert main([command, str(path)]) in (0, 1)
        assert len(calls) == 1
