"""The benchmark's workloads and the inputs it makes for them from a seed.

Every workload runs at SI = frame interval = 40 ms (MSI 40 ms inside a
120 ms beacon interval, 25 fps video), the operating point whose outputs
the acceptance tests pin. No workload runs at SI != frame interval: there
the adaptive schedulers leave backlogs that grow without bound, a known
defect whose fix changes outputs by design.

The seed picks where in the 13 100-frame stream every station starts
playing (a rotation of the trace in display order) and the RNG seed of the
run, which draws frame losses. Seed 0 plays the stream from its first
frame, so at seed 0 the canonical workload is the canonical scenario of
the roadmap.
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import yaml

SCHEDULERS = ["hcca", "atxop", "amtxop"]

# The explicit traffic contract of the jp1_high presets.
JP1_HIGH_TSPEC = {
    "mean_msdu_bytes": 3800,
    "max_msdu_bytes": 7500,
    "mean_rate_bps": 770000,
    "delay_bound_s": 0.08,
    "min_phy_rate_bps": 11000000,
    "msi_s": 0.04,
}

CONFIGS = {
    # 12 stations of jp1_high on 11g (54 Mb/s data is the profile's top
    # rate), 2 Mb/s control, 60 s with 20 s warmup: 1000 service intervals
    # at full admission, no loss, no mobility, no model.
    "canonical": {
        "scheduler": SCHEDULERS,
        "phy": {"profile": "11g", "control_rate": 2000000},
        "tspec": JP1_HIGH_TSPEC,
        "run": {"sim_time_s": 60, "warmup_s": 20, "station_start_s": 20,
                "beacon_interval_s": 0.12},
        "sweep": {"stations": [12]},
    },
    # The analytic_jp1_high contract (TSPEC derived from the trace, 36 Mb/s
    # data, 1 Mb/s control, stations start at the warmup boundary) over
    # 150 measured service intervals, at three populations up to 12.
    "analytic": {
        "scheduler": SCHEDULERS,
        "phy": {"profile": "11g", "control_rate": 1000000, "data_rate": 36000000},
        "tspec": {"derive": True, "delay_bound_s": 0.08,
                  "min_phy_rate_bps": 36000000, "msi_s": 0.04},
        "run": {"sim_time_s": 26, "warmup_s": 20, "station_start_s": 20,
                "beacon_interval_s": 0.12},
        "sweep": {"stations": [4, 8, 12]},
    },
    # Five stations walk outward at 2 m/s from 30 ft through the four rate
    # tiers of presets/mobility.yaml (54, 36, 18, 6 Mb/s) and disassociate
    # past 325 ft, about 47 s in; 7% of uplink frames are lost.
    "lossy-mobile": {
        "scheduler": SCHEDULERS,
        "phy": {"profile": "11g", "control_rate": 2000000},
        "tspec": JP1_HIGH_TSPEC,
        "run": {"sim_time_s": 60, "beacon_interval_s": 0.12},
        "sweep": {"stations": [5], "per": [0.07]},
        "mobility": {
            "tiers": [[80, 54000000], [200, 36000000], [250, 18000000], [325, 6000000]],
            "speed_mps": 2,
            "start_s": 2,
            "initial_distance_ft": 30,
        },
    },
}

TRACE = "traces/jp1_high.txt"

# Prime and coprime to the trace length, so seeds 0..13099 give distinct
# starting frames spread over the whole stream.
OFFSET_STRIDE = 2053


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config_path: Path     # YAML config the benchmark loads like the CLI does
    csv_path: Path        # where the result rows are written
    trace_offset: int

    @property
    def validates_model(self) -> bool:
        return self.name == "analytic"


def _read_display_order(path):
    """(type, size) of every frame of a trace file, in display order."""
    frames = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            cols = line.split()
            if not cols or cols[0].startswith("#"):
                continue
            seq, ftype, display_ms, size = cols
            frames.append((Fraction(display_ms), int(seq), ftype, int(size)))
    frames.sort()
    interval = frames[1][0] - frames[0][0]
    return [(ftype, size) for _, _, ftype, size in frames], interval


def make(name, seed, workdir: Path, root: Path) -> Workload:
    """Write the seed's trace and config into workdir."""
    frames, interval = _read_display_order(root / TRACE)
    offset = seed * OFFSET_STRIDE % len(frames)
    rotated = frames[offset:] + frames[:offset]
    trace_path = workdir / "trace.txt"
    with open(trace_path, "w", encoding="ascii") as fh:
        fh.write(f"# {TRACE} rotated to start at display frame {offset}\n")
        for i, (ftype, size) in enumerate(rotated):
            t = i * interval
            t_ms = t.numerator if t.denominator == 1 else float(t)
            fh.write(f"{i} {ftype} {t_ms} {size}\n")

    csv_path = workdir / f"{name}.csv"
    doc = {"name": name, **CONFIGS[name]}
    doc["traffic"] = {"trace": str(trace_path)}
    doc["run"] = {**doc["run"], "seed": seed}
    doc["output"] = {"csv": str(csv_path)}
    config_path = workdir / f"{name}.yaml"
    with open(config_path, "w", encoding="ascii") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return Workload(name, seed, config_path, csv_path, offset)
