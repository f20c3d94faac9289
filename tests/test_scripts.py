import importlib.util
import sys
from pathlib import Path

import pytest

from hccasim import cli
from hccasim.experiment import load_config

ROOT = Path(__file__).resolve().parents[1]

PRESET = """\
scheduler: hcca
phy:
  profile: 11g
traffic:
  trace: {trace}
tspec:
  mean_msdu_bytes: 770
  max_msdu_bytes: 1100
  mean_rate_bps: 150000
run:
  sim_time_s: 0.5
{output}"""


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunAllPresets:
    def test_every_failure_is_reported(self, tmp_path, monkeypatch, capsys):
        presets = tmp_path / "presets"
        presets.mkdir()
        trace = ROOT / "traces" / "jp1_low.txt"
        outputs = {
            "with_csv": "output:\n  csv: results/with_csv.csv\n",
            "no_csv": "",
            "unlisted": "output:\n  csv: results/unlisted.csv\n",
        }
        for name, output in outputs.items():
            (presets / f"{name}.yaml").write_text(PRESET.format(trace=trace, output=output))
        (presets / "SHA256SUMS").write_text(
            f"{'0' * 64}  results/with_csv.csv\n{'1' * 64}  results/gone.csv\n")
        script = load_script("run_all_presets")
        monkeypatch.setattr(script, "ROOT", tmp_path)
        monkeypatch.setattr(script, "PRESETS", {"with_csv": "run", "no_csv": "run"})
        monkeypatch.setattr(sys, "argv", ["run_all_presets.py"])
        monkeypatch.chdir(tmp_path)
        assert script.main() == 1
        failed = capsys.readouterr().out.splitlines()[-1]
        assert failed == (
            "FAILED: unlisted.yaml (not in PRESETS), no_csv (no output.csv), "
            f"results/with_csv.csv digest (expected {'0' * 64}), "
            "results/gone.csv (in SHA256SUMS, not written)"
        )
        assert (tmp_path / "results" / "with_csv.csv").is_file()
        assert not (tmp_path / "results" / "unlisted.csv").exists()

    def test_each_preset_is_parsed_once(self, tmp_path, monkeypatch):
        presets = tmp_path / "presets"
        presets.mkdir()
        trace = ROOT / "traces" / "jp1_low.txt"
        output = "output:\n  csv: results/one.csv\n"
        (presets / "one.yaml").write_text(PRESET.format(trace=trace, output=output))
        (presets / "SHA256SUMS").write_text("")
        script = load_script("run_all_presets")
        parsed = []

        def counting_load_config(path):
            parsed.append(path)
            return load_config(path)

        monkeypatch.setattr(script, "ROOT", tmp_path)
        monkeypatch.setattr(script, "PRESETS", {"one": "run"})
        monkeypatch.setattr(script, "load_config", counting_load_config)
        monkeypatch.setattr(cli, "load_config", counting_load_config)
        monkeypatch.setattr(sys, "argv", ["run_all_presets.py"])
        monkeypatch.chdir(tmp_path)
        script.main()
        assert parsed == [presets / "one.yaml"]
        assert (tmp_path / "results" / "one.csv").is_file()

    @pytest.mark.parametrize("jobs", ["2", "0", "-1", "two"])
    def test_jobs_below_one_rejected_before_any_preset(self, monkeypatch, capsys, jobs):
        """The presets run one after another and the script takes no
        --jobs, whatever its value."""
        script = load_script("run_all_presets")
        monkeypatch.setattr(script, "load_config", None)   # no preset may be read
        monkeypatch.setattr(script, "cli_main", None)      # nor run
        monkeypatch.setattr(sys, "argv", ["run_all_presets.py", "--jobs", jobs])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: --jobs {jobs}" in err


class TestBenchPairs:
    def test_summary_of_fixed_pairs(self):
        """Quartiles are inclusive, a tie wins for neither side, and the
        direction that is better decides who wins a pair."""
        summarize = load_script("bench_pairs").summarize
        parent = [{"wall_s": w, "events_per_s": e} for w, e in [(1.0, 10), (1.2, 10), (1.1, 12), (1.4, 9)]]
        change = [{"wall_s": w, "events_per_s": e} for w, e in [(0.8, 11), (0.9, 10), (1.15, 11), (1.0, 10)]]
        out = summarize(parent, change, {"wall_s": ("s", "lower"), "events_per_s": ("1/s", "higher")})
        assert out["wall_s"] == {
            "unit": "s", "better": "lower",
            "parent": {"median": 1.15, "q1": 1.075, "q3": 1.25},
            "change": {"median": 0.95, "q1": 0.875, "q3": 1.0375},
            "change_pct": -17.4, "change_wins": "3/4", "gap_exceeds_parent_iqr": True,
        }
        assert out["events_per_s"] == {
            "unit": "1/s", "better": "higher",
            "parent": {"median": 10, "q1": 9.75, "q3": 10.5},
            "change": {"median": 10.5, "q1": 10, "q3": 11},
            "change_pct": 5.0, "change_wins": "2/4", "gap_exceeds_parent_iqr": False,
        }

    def test_a_failed_run_stops_the_pairs_with_one_line(self, tmp_path, monkeypatch, capsys):
        """A perfbench run that exits non-zero ends the script with exit 1
        and one line: the pair, the side, the exit code and the run's last
        line of stderr. No summary is written."""
        script = load_script("bench_pairs")

        def stub_checkout(rev, dest):
            (dest / "perfbench").mkdir()
            (dest / "perfbench" / "run.py").write_text(
                "import sys\nprint('loading', file=sys.stderr)\n"
                "print('unknown workload W', file=sys.stderr)\nsys.exit(2)\n")
            return rev

        out = tmp_path / "BENCH_0.json"
        monkeypatch.setattr(script, "unpack", stub_checkout)
        monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "p", "--change", "c",
                                          "--workload", "W", "--pairs", "2", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 1
        assert capsys.readouterr().err == "pair 1 parent: perfbench exited 2: unknown workload W\n"
        assert not out.exists()
