#!/usr/bin/env python3
"""Run every bundled experiment preset through the subcommand PRESETS
names for it, each writing the CSV its config names under output.csv.
Takes 1.2-2.2 s on a 2-vCPU host, one scenario after another. Ends with
the SHA-256 of every CSV written and exits 1 when one differs from
presets/SHA256SUMS (sha256sum format, paths relative to the working
directory), when SHA256SUMS names a CSV no preset wrote, or when a
presets/*.yaml is not in PRESETS, so it would never run, or names no
output.csv."""

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

PRESETS = {
    "delay_sweep_jp1_high": "run",
    "delay_sweep_f1_high": "run",
    "delay_sweep_11b_jp1_high": "run",
    "txop_sweep_jp1_low": "run",
    "per_sweep": "run",
    "utilization": "run",
    "mobility": "run",
    "analytic_jp1_high": "validate-analytic",
    "analytic_jp1_low": "validate-analytic",
}


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    failures = [
        f"{path.name} (not in PRESETS)"
        for path in sorted((ROOT / "presets").glob("*.yaml"))
        if path.stem not in PRESETS
    ]
    written = []
    for name, command in PRESETS.items():
        path = ROOT / "presets" / f"{name}.yaml"
        config = load_config(path)
        if not config.csv_path:
            failures.append(f"{name} (no output.csv)")
            continue
        written.append(Path.cwd() / config.csv_path)
        print(f"=== {command} {name} ===", flush=True)
        t0 = time.time()
        code = cli_main([command, str(path)], config)
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
        want = expected.pop(name, None)
        if digest != want:
            failures.append(f"{name} digest (expected {want})")
    failures += [f"{name} (in SHA256SUMS, not written)" for name in expected]

    if failures:
        print("FAILED:", ", ".join(failures))
        return 1
    print("all presets completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
