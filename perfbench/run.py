#!/usr/bin/env python3
"""hccasim benchmark: host time of the experiment harness on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 40 --trace 0

It drives the public API the CLI uses (``experiment.load_config``,
``expand_scenarios``, ``run_experiment`` / ``validate_analytic`` and the
CSV writers) on inputs made from the seed (see ``workloads.py``), checks
every output, and prints every metric by name with its unit. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. All times are host time on
``time.perf_counter``; simulated time only sets up the workloads.

One run times the set-up (config load, trace parse, TSPEC derivation,
scenario expansion) several times, then runs one whole pass (every
scenario of the workload, its rows and its CSV) as a warm-up and repeats
passes for ``--seconds``. The end-to-end times are medians over the
timed set-ups and passes, put on the fixed host-speed scale of
``hostspeed.py``: a short reference workload runs about every 0.1 s and
before and after every set-up and pass, its time is left out of the
program's, and each stretch of the program between two reference runs is
scaled by their mean time. The host seconds are printed and recorded
beside the scaled ones.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced passes with traced ones and reports the
per-layer metrics from the traced passes (see ``tracer.py``); their times
include the tracer's own cost, which ``trace.overhead_frac`` reports.

Correctness, per operation (one scenario run or one model evaluation):
conservation ``n_generated == n_delivered + n_lost + n_left_queued`` on
every scenario; every pass repeats the first pass's CSV digest and exact
counts; traced passes repeat the untraced digest and their heap pops equal
the event count derived from each RunResult; every scenario gets one
positive, finite model delay; at the default seed the CSV digest, exact
counts and model error equal ``golden.json``. Other seeds check only the
invariants and determinism. A missed check fails every operation it
covers. The model's relative error is reported, not bounded: the CLI's
0.10 bound is a claim about the analytic presets, not about every window
of the stream a seed picks.

Outputs go under ``perfbench-out/`` at the checkout root: a JSON record
of every run, with the Python version, CPU count, CPU model, commit and
seed beside the numbers, and after a traced run its spans.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "perfbench-out"
REQUIRED = ("src/hccasim/__init__.py", "traces/jp1_high.txt")

SETUP_REPEATS = 9
MIN_PASSES = 3          # a warm-up, then at least two timed passes that repeat its rows
COUNTS = ("events", "service_intervals", "grants", "delivered", "lost", "deferred", "left_queued")


class Refused(Exception):
    """The run cannot be timed as asked."""


def parse_args(argv):
    from workloads import CONFIGS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hccasim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def _commit():
    """HEAD of the checkout's git directory, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Tap:
    """Stands in for ``experiment.run_scenario`` to keep each RunResult,
    its host time and, under tracing, the engine's heap pops."""

    def __init__(self, run, heap=None):
        self.run, self.heap = run, heap
        self.calls = []

    def __call__(self, scenario):
        pops = self.heap.pops if self.heap else 0
        t0 = time.perf_counter()
        result = self.run(scenario)
        dt = time.perf_counter() - t0
        self.calls.append((result, dt, self.heap.pops - pops if self.heap else None))
        return result


def event_count(r):
    """Events the engine processes: one per frame generated, service
    interval, granted slot, beacon and stream start."""
    return r.n_generated + r.n_service_intervals + len(r.grant_log) + r.n_beacons + r.n_offered


class Bench:
    def __init__(self, wl, golden):
        from hccasim import engine, experiment

        self.engine, self.experiment = engine, experiment
        self.wl = wl
        self.golden = golden if wl.seed == golden.get("seed") else None
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None     # (digest, counts, model error) of the first pass
        self.host = None      # an untraced run's host seconds, before scaling

    def setup(self):
        config = self.experiment.load_config(self.wl.config_path)
        scenarios = self.experiment.expand_scenarios(config)
        if any(sc.log_events for sc in scenarios):
            raise Refused("a scenario has log_events on; its string log would be timed")
        return config, scenarios

    def run_pass(self, config, speed=None, heap=None, kind="untraced"):
        """One pass over the workload. With a HostSpeed that is sampling,
        the host speed is also sampled at the start and end of the pass;
        the pass's wall_s leaves the samples out and its scaled_s is
        wall_s on the host-speed scale."""
        ex = self.experiment
        tap = Tap(ex.run_scenario, heap)
        ex.run_scenario = tap
        if speed:
            first = speed.sample()
        try:
            t0 = time.perf_counter()
            if self.wl.validates_model:
                rows = ex.validate_analytic(config)
                ex.write_validation_csv(rows, self.wl.csv_path)
            else:
                rows = ex.run_experiment(config)
            wall = time.perf_counter() - t0
        finally:
            ex.run_scenario = tap.run
        scaled = None
        if speed:
            wall, scaled = speed.between(first, speed.sample())
        digest = hashlib.sha256(self.wl.csv_path.read_bytes()).hexdigest()
        p = self._check(kind, wall, digest, rows, tap.calls)
        p["scaled_s"] = scaled
        self.passes.append(p)
        return p

    def _check(self, kind, wall, digest, rows, calls):
        results = [r for r, _, _ in calls]
        counts = {
            "events": sum(event_count(r) for r in results),
            "service_intervals": sum(r.n_service_intervals for r in results),
            "grants": sum(len(r.grant_log) for r in results),
            "delivered": sum(r.n_delivered for r in results),
            "lost": sum(r.n_lost for r in results),
            "deferred": sum(r.n_deferred_slots for r in results),
            "left_queued": sum(r.n_left_queued for r in results),
        }
        adaptive = [g for r in results if r.scenario.scheduler != "hcca" for g in r.grant_log]
        piggy = sum(g.basis.name == "PIGGYBACK_SIZE" for g in adaptive)
        p = {
            "kind": kind,
            "wall_s": wall,
            "sha256": digest,
            "counts": counts,
            "events_per_s": counts["events"] / wall,
            "run_s": {},
            "piggyback_ratio": piggy / len(adaptive) if adaptive else 0.0,
        }
        for r, dt, _ in calls:
            p["run_s"][r.scenario.scheduler] = p["run_s"].get(r.scenario.scheduler, 0.0) + dt

        bad = set()   # failed operations of this pass, by index
        for i, (r, _, pops) in enumerate(calls):
            if r.n_generated != r.n_delivered + r.n_lost + r.n_left_queued:
                bad.add(i)
                self._problem(f"{r.scenario.name}: conservation broken")
            if pops is not None and pops != event_count(r):
                bad.add(i)
                self._problem(f"{r.scenario.name}: {pops} heap pops, {event_count(r)} derived events")
        ops = len(calls)
        if self.wl.validates_model:
            # one model evaluation per scenario; a scenario with nothing
            # measured gets no row, which counts as a failed evaluation
            p["model_max_rel_err"] = max(row["rel_err"] for row in rows)
            for j, row in enumerate(rows):
                if not 0 < row["model_ms"] < math.inf:
                    bad.add(ops + j)
                    self._problem(f"model {row['scheduler']} n={row['n']}: {row['model_ms']} ms")
            for j in range(len(rows), len(calls)):
                bad.add(ops + j)
                self._problem("a scenario produced no validation row")
            ops += len(calls)

        whole = self._pass_checks(p)
        if whole:
            self._problem(f"{kind} pass {len(self.passes) + 1}: {whole}")
            bad = set(range(ops))
        self.attempted += ops
        self.failed += len(bad)
        return p

    def _pass_checks(self, p):
        """What fails a whole pass: its rows differ from the first pass or,
        at the default seed, from the golden outputs."""
        mine = (p["sha256"], p["counts"], p.get("model_max_rel_err"))
        if self.first is None:
            self.first = mine
        elif mine != self.first:
            return "rows, counts or model error differ from the first pass"
        if self.golden is None:
            return None
        g = self.golden["workloads"].get(self.wl.name)
        if g is None:
            return "no golden outputs recorded for this workload"
        if p["sha256"] != g["sha256"]:
            return f"CSV sha256 {p['sha256']} != golden {g['sha256']}"
        if p["counts"] != g["counts"]:
            return f"counts {p['counts']} != golden {g['counts']}"
        if p.get("model_max_rel_err") != g.get("model_max_rel_err"):
            return f"model max rel err {p.get('model_max_rel_err')} != golden"
        return None

    def _problem(self, text):
        if len(self.problems) < 50:
            self.problems.append(text)


def timed_loop(seconds, step, min_steps):
    """Run step() until the next one would end past the deadline, at least
    min_steps times."""
    start = time.perf_counter()
    n, last = 0, 0.0
    while n < min_steps or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        n += 1


def run_untraced(bench, seconds):
    """End-to-end metrics: medians over the timed set-ups and passes, on
    the host-speed scale. The first pass is a warm-up."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    start = time.perf_counter()
    with speed.sampling():
        setups = []
        for _ in range(SETUP_REPEATS):
            first = speed.sample()
            config, _ = bench.setup()
            setups.append(speed.between(first, speed.sample()))
        timed_loop(seconds - (time.perf_counter() - start),
                   lambda: bench.run_pass(config, speed), MIN_PASSES)
    timed = bench.passes[1:]
    wall = statistics.median(p["scaled_s"] for p in timed)
    bench.host = {"setup_s": statistics.median(host for host, _ in setups),
                  "setups": setups,
                  "wall_s": statistics.median(p["wall_s"] for p in timed),
                  "speed_samples": speed.spans}
    return {
        "wall_s": (wall, "s"),
        "events_per_s": (timed[0]["counts"]["events"] / wall, "1/s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_traced(bench, seconds, stem):
    from tracer import HeapCounter, Tracer

    config, scenarios = bench.setup()
    pickle_bytes = sum(len(pickle.dumps(sc)) for sc in scenarios)
    samples = []

    def pair():
        bench.run_pass(config)
        tracer, heap = Tracer(), None
        tracer.install()
        if hasattr(bench.engine, "heapq"):
            heap = HeapCounter()
            tracer.swap(bench.engine, "heapq", heap.module)
        try:
            with tracer.span("bench.setup"):
                traced_config, traced_scenarios = bench.setup()
            frames = len(traced_scenarios[0].stations[0].trace)
            s = {
                "traces.load_s": tracer.time_of("traces.load_trace"),
                "traces.frames": tracer.calls_of("traces.load_trace") * frames,
                "experiment.load_config_s": tracer.time_of("experiment.load_config"),
                "experiment.expand_s": tracer.time_of("experiment.expand_scenarios"),
            }
            tracer.clear()
            with tracer.span("bench.pass"):
                p = bench.run_pass(traced_config, heap=heap, kind="traced")
        finally:
            tracer.restore()
        s.update(pass_layers(tracer, p))
        s["experiment.scenario_pickle_bytes"] = pickle_bytes
        samples.append(s)
        tracer.write(stem)

    timed_loop(seconds, pair, 1)
    untraced = [p["wall_s"] for p in bench.passes if p["kind"] == "untraced"]
    traced = [p["wall_s"] for p in bench.passes if p["kind"] == "traced"]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    # median_low keeps counts whole: it returns one of the samples
    return {name: (overhead if name == "trace.overhead_frac"
                   else statistics.median_low(s[name] for s in samples), unit)
            for name, unit in PER_LAYER.items()}


# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "traces.load_s": "s",
    "traces.frames": "count",
    "experiment.load_config_s": "s",
    "experiment.expand_s": "s",
    "engine.run_scenario_s.hcca": "s",
    "engine.run_scenario_s.atxop": "s",
    "engine.run_scenario_s.amtxop": "s",
    "engine.self_s": "s",
    "hcca.calls": "count",
    "hcca.self_s": "s",
    "adaptive.calls": "count",
    "adaptive.self_s": "s",
    "adaptive.station_backoff_calls": "count",
    "adaptive.piggyback_ratio": "ratio",
    "phy.calls": "count",
    "phy.self_s": "s",
    "metrics.report_s": "s",
    "analytic.inputs_s": "s",
    "analytic.aggregate_s": "s",
    "analytic.d_si_calls": "count",
    "experiment.rows_s": "s",
    "experiment.scenario_pickle_bytes": "bytes",
    **{f"engine.{name}": "count" for name in COUNTS},
    "trace.overhead_frac": "frac",
}


def pass_layers(tracer, p):
    """Per-layer numbers of one traced pass."""
    layers = tracer.by_layer()
    none = {"calls": 0, "self_s": 0.0, "time_s": 0.0}
    s = {f"engine.run_scenario_s.{sched}": p["run_s"].get(sched, 0.0)
         for sched in ("hcca", "atxop", "amtxop")}
    s["engine.self_s"] = layers.get("engine", none)["self_s"]
    for layer in ("hcca", "adaptive", "phy"):
        s[f"{layer}.calls"] = layers.get(layer, none)["calls"]
        s[f"{layer}.self_s"] = layers.get(layer, none)["self_s"]
    s["adaptive.station_backoff_calls"] = tracer.calls_of("adaptive.station_backoff")
    s["adaptive.piggyback_ratio"] = p["piggyback_ratio"]
    s["metrics.report_s"] = layers.get("metrics", none)["time_s"]
    s["analytic.inputs_s"] = tracer.time_of("analytic.analytic_inputs")
    s["analytic.aggregate_s"] = tracer.time_of("analytic.aggregate_delay", "analytic.aggregate_delay_alt")
    s["analytic.d_si_calls"] = tracer.calls_of("analytic.d_si")
    s["experiment.rows_s"] = tracer.time_of(
        "experiment._row_from_result", "experiment._fill_utilization",
        "experiment.write_csv", "experiment.write_validation_csv")
    for name in COUNTS:
        s[f"engine.{name}"] = p["counts"][name]
    return s


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a hccasim checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    if os.environ.get("HCCASIM_LOG", "") not in ("", "0"):
        print("perfbench: HCCASIM_LOG is set; the engine would build a string log "
              "of every event, so the run is not timed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hccasim

    if Path(hccasim.__file__).resolve().parent != ROOT / "src" / "hccasim":
        print(f"perfbench: imported hccasim from {hccasim.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    golden = json.loads((BENCH / "golden.json").read_text())
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.make(args.workload, args.seed, workdir, ROOT)
        bench = Bench(wl, golden)
        if args.trace:
            metrics = run_traced(bench, args.seconds, stem)
        else:
            metrics = run_untraced(bench, args.seconds)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("perfbench: metrics differ from the names and units in BENCHMARK.json",
              file=sys.stderr)
        return 1
    report(args, env, wl, bench, metrics, stem)
    return 0


def report(args, env, wl, bench, metrics, stem):
    print(f"workload {args.workload}  seed {args.seed} (trace offset {wl.trace_offset})  "
          f"trace {args.trace}  python {env['python']}  nproc {env['nproc']}  "
          f"cpu {env['cpu']!r}  commit {env['commit']}  src {env['src_sha256'][:16]}")
    for i, p in enumerate(bench.passes, 1):
        scaled = f"{p['scaled_s']:9.4f} s scaled" if p["scaled_s"] is not None else " " * 16
        print(f"  pass {i} {p['kind']:8s} {p['wall_s']:9.4f} s host {scaled}  "
              f"{p['counts']['events']} events  "
              f"sha256 {p['sha256'][:16]}")
    for text in bench.problems:
        print(f"  FAILED {text}")
    if bench.host:
        h = bench.host
        print(f"  host seconds, not scaled: set-up {h['setup_s']:.4f} s, pass {h['wall_s']:.4f} s "
              f"({len(h['speed_samples'])} reference runs)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    fail_frac = bench.failed / bench.attempted
    print(f"  {'fail_frac':40s} {fail_frac:>16.6g} ratio  ({bench.failed}/{bench.attempted})")
    if wl.validates_model:
        err = bench.passes[0]["model_max_rel_err"]
        print(f"  {'model_max_rel_err':40s} {err:>16.6g} ratio  (CLI bound 0.10)")
    out = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**out, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "trace_offset": wl.trace_offset, "environment": env,
              "fail_frac": fail_frac, "problems": bench.problems, "passes": bench.passes,
              "host": bench.host}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
