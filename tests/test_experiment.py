import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest

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


def mobility(speeds):
    """A mobility section: from 70 ft, a group walking at 5 m/s drops from
    54 to 6 Mb/s about 0.6 s in; at 1 m/s it keeps 54 Mb/s for 3 s."""
    return ("mobility:\n  tiers: [[80, 54000000], [200, 6000000]]\n"
            f"  speed_mps: {speeds}\n  start_s: 0\n  initial_distance_ft: 70")


def write_config(tmp_path, extra="", body=None):
    text = (body or MINI).format(trace=ROOT / "traces" / "jp1_low.txt", extra=extra)
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.name == "mini"
        assert cfg.schedulers == ("hcca", "atxop")
        assert cfg.profiles == ("11g",)
        assert cfg.control_rate == 2_000_000
        assert cfg.sim_time_s == 1
        assert cfg.warmup_s == Fraction(1, 5)
        assert cfg.stations_sweep == (1, 2)
        assert cfg.per_sweep == (0.0,)
        assert cfg.mobilities == ()
        assert cfg.csv_path is None
        assert cfg.tspec.mean_msdu_bytes == 770

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
        assert cfg.trace == load_trace(sub / "t.txt")

    def test_derived_tspec_matches_trace(self, tmp_path):
        extra = ""
        body = MINI.replace(
            "tspec:\n  mean_msdu_bytes: 770\n  max_msdu_bytes: 1100\n  mean_rate_bps: 150000",
            "tspec:\n  derive: true\n  min_phy_rate_bps: 4000000",
        )
        cfg = load_config(write_config(tmp_path, extra=extra, body=body))
        assert cfg.tspec.mean_msdu_bytes == 765
        assert cfg.tspec.max_msdu_bytes == 1100
        assert cfg.tspec.mean_rate_bps == 153_000
        assert cfg.tspec.min_phy_rate_bps == 4_000_000

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

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert serial == parallel


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


class TestCli:
    def test_stats_exit_zero(self, capsys):
        assert main(["stats", str(ROOT / "traces" / "jp1_low.txt")]) == 0
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
    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, command, jobs):
        path = write_config(tmp_path)
        assert "--jobs" in self.rejected(capsys, [command, str(path), "--jobs", jobs])

    def test_table2_rejects_n_max_below_one(self, capsys):
        for n_max in ("0", "-3"):
            assert "--n-max" in self.rejected(capsys, ["table2", "--n-max", n_max])

    @pytest.mark.parametrize("phy", ["control_rate: 0", "control_rate: 2000000\n  data_rate: 0"])
    def test_run_rejects_a_rate_that_is_not_positive(self, tmp_path, capsys, phy):
        path = write_config(tmp_path, body=MINI.replace("control_rate: 2000000", phy))
        assert main(["run", str(path)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error:") and "rate must be > 0" in errors[0]

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

    def test_validate_gate(self, tmp_path, capsys):
        path = write_config(tmp_path, body=VALIDATE.replace("stations: [1, 3]", "stations: [2]"))
        assert main(["validate-analytic", str(path), "--csv", str(tmp_path / "v.csv")]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert (tmp_path / "v.csv").exists()
        # an absurdly tight bound must flip the exit code
        assert main(["validate-analytic", str(path), "--bound", "0.0001"]) == 1

    def test_validate_window_shorter_than_one_si(self, tmp_path, capsys, monkeypatch):
        # 20 ms measured against a 40 ms SI: no whole interval to model
        path = write_config(tmp_path, body=VALIDATE.replace("sim_time_s: 24", "sim_time_s: 20.02"))

        def no_run(scenario):
            raise AssertionError(f"{scenario.name} ran before the window check")

        monkeypatch.setattr(experiment, "run_scenario", no_run)
        assert main(["validate-analytic", str(path)]) == 2
        assert "service interval" in capsys.readouterr().err

    def test_validate_with_no_rows_fails(self, tmp_path, capsys):
        # every frame is displayed after the 4 s window ends: nothing is compared
        late = tmp_path / "late.txt"
        late.write_text("".join(f"{k} I {5000 + 40 * k} 800\n" for k in range(50)))
        path = write_config(tmp_path, body=VALIDATE.replace("{trace}", str(late)))
        assert main(["validate-analytic", str(path)]) == 1
        captured = capsys.readouterr()
        assert "max relative error" not in captured.out
        assert len(captured.err.splitlines()) == 1 and "no scenario" in captured.err

    @pytest.mark.parametrize("command", ["run", "validate-analytic"])
    def test_trace_file_parsed_once(self, tmp_path, monkeypatch, command):
        # the derived TSPEC and every scenario share the one parse
        calls = []
        monkeypatch.setattr(experiment, "load_trace", lambda p: calls.append(p) or load_trace(p))
        path = write_config(tmp_path, body=VALIDATE.replace("stations: [1, 3]", "stations: [1]"))
        assert main([command, str(path)]) in (0, 1)
        assert len(calls) == 1
