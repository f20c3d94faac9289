#!/usr/bin/env python3
"""Time two commits with the benchmark in alternating pairs and record the
summary in a BENCH_<n>.json at the repository root.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload lossy-mobile --seed 0 --pairs 10 --out BENCH_29.json

Each commit is unpacked from `git archive` into its own temporary
directory, and each run there is

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

run by the same interpreter as this script. Pairs alternate which side
runs first, the parent first in odd pairs. Per end-to-end metric of
BENCHMARK.json the file gets each side's median and quartiles over its
runs, the change's median against the parent's in percent, the pairs the
change won (ties count for neither side), and whether the gap between
the medians exceeds the spread between the parent's quartiles. An
existing output file keeps its other workloads and keys, so one file can
collect several invocations for the same two commits. A perfbench run
that exits non-zero stops the script with exit 1 and one line on stderr,
and nothing is written."""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
METHOD = ("alternating pairs, parent first in odd pairs, each side from a git archive of its "
          "commit; values are perfbench's end-to-end medians per run, summarised here as median "
          "and quartiles (statistics.quantiles, inclusive) over the runs")


def spread(values):
    """Median and quartiles of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(parent, change, declared):
    """The per-metric summary of paired runs. parent and change hold one
    {metric: value} per run, in pair order; declared maps each end-to-end
    metric to its unit and the direction that is better."""
    out = {}
    for name, (unit, better) in declared.items():
        p, c = [run[name] for run in parent], [run[name] for run in change]
        ps, cs = spread(p), spread(c)
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        out[name] = {
            "unit": unit,
            "better": better,
            "parent": ps,
            "change": cs,
            "change_pct": round(100 * (cs["median"] - ps["median"]) / ps["median"], 1),
            "change_wins": f"{wins}/{len(p)}",
            "gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def unpack(rev, dest):
    """The files of commit rev under dest; returns its short hash."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(checkout, args, where):
    """One perfbench run in checkout: its last line, parsed. A run that
    fails stops the script with one line naming where it ran (the pair
    and side), its exit code and the last line of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        last = (done.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        print(f"{where}: perfbench exited {done.returncode}: {last}", file=sys.stderr)
        sys.exit(1)
    return json.loads(done.stdout.splitlines()[-1])


def host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "os": platform.system()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit that claims the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write or update")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    runs = {"parent": [], "change": []}
    failed, correct = 0, True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs, revs = {}, {}
        for side in runs:
            dirs[side] = Path(tmp, side)
            dirs[side].mkdir()
            revs[side] = unpack(getattr(args, side), dirs[side])
        for i in range(1, args.pairs + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                out = bench(dirs[side], args, f"pair {i} {side}")
                correct &= out["correct"]
                failed += out["failed"]
                runs[side].append({name: m["value"] for name, m in out["metrics"].items()})
                print(f"pair {i} {side:6s} " + "  ".join(
                    f"{name} {runs[side][-1][name]:.6g}" for name in declared), flush=True)

    path = args.out if args.out.is_absolute() else ROOT / args.out
    record = json.loads(path.read_text()) if path.exists() else {}
    if record and (record.get("parent"), record.get("change")) != (revs["parent"], revs["change"]):
        sys.exit(f"{path} records other commits: {record.get('parent')} -> {record.get('change')}")
    record.update(benchmark=BENCHMARK.format(seconds=args.seconds), host=host(),
                  parent=revs["parent"], change=revs["change"], method=METHOD)
    record.setdefault("runs", {})[f"{args.workload} seed {args.seed}"] = {
        "seed": args.seed, "pairs": args.pairs, "correct": correct, "failed": failed,
        "metrics": summarize(runs["parent"], runs["change"], declared),
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, m in record["runs"][f"{args.workload} seed {args.seed}"]["metrics"].items():
        print(f"{name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
              f"({m['change_pct']:+.1f}%, change wins {m['change_wins']})")
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
