#!/usr/bin/env python3
"""Run every bundled experiment preset and collect the CSVs under
results/. Delay/TXOP/mobility presets go through `run`; the analytic
presets go through `validate-analytic`. Takes a few minutes serially;
pass --jobs to spread runs over worker processes. Ends with the SHA-256
of every CSV written and exits 1 when one differs from presets/SHA256SUMS
(sha256sum format, paths relative to the working directory)."""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hccasim.cli import main as cli_main  # noqa: E402
from hccasim.experiment import load_config  # noqa: E402

RUN_PRESETS = (
    "delay_sweep_jp1_high",
    "delay_sweep_f1_high",
    "delay_sweep_11b_jp1_high",
    "txop_sweep_jp1_low",
    "per_sweep",
    "utilization",
    "mobility",
)
VALIDATE_PRESETS = ("analytic_jp1_high", "analytic_jp1_low")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    failures = []
    written = []
    for name in RUN_PRESETS:
        path = ROOT / "presets" / f"{name}.yaml"
        written.append(Path.cwd() / load_config(path).csv_path)
        print(f"=== run {name} ===", flush=True)
        t0 = time.time()
        code = cli_main(["run", str(path), "--jobs", str(args.jobs)])
        print(f"--- {name}: exit {code} in {time.time() - t0:.1f}s\n", flush=True)
        if code != 0:
            failures.append(name)

    for name in VALIDATE_PRESETS:
        path = ROOT / "presets" / f"{name}.yaml"
        csv_out = Path.cwd() / "results" / f"{name}.csv"
        written.append(csv_out)
        print(f"=== validate-analytic {name} ===", flush=True)
        t0 = time.time()
        code = cli_main(
            ["validate-analytic", str(path), "--jobs", str(args.jobs), "--csv", str(csv_out)]
        )
        print(f"--- {name}: exit {code} in {time.time() - t0:.1f}s\n", flush=True)
        if code != 0:
            failures.append(name)

    expected = {}
    for line in (ROOT / "presets" / "SHA256SUMS").read_text().splitlines():
        digest, _, name = line.partition("  ")
        expected[name] = digest
    for csv_path in written:
        name = os.path.relpath(csv_path)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.is_file() else "missing"
        print(f"{digest}  {name}")
        if digest != expected.get(name):
            failures.append(f"{name} digest (expected {expected.get(name)})")

    if failures:
        print("FAILED:", ", ".join(failures))
        return 1
    print("all presets completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
