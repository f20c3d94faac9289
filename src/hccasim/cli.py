"""Command line front end.

Subcommands:
  run                execute an experiment config and print/write rows
  table2             polling airtime: per-station polls vs one multi-poll
  validate-analytic  closed-form delay model against the simulator
  stats              frame-size and bit-rate statistics of a trace file
"""

import argparse
import math
import sys

from .errors import ConfigError
from .experiment import (
    CSV_COLUMNS,
    VALIDATION_COLUMNS,
    emit_table2,
    load_config,
    run_experiment,
    validate_analytic,
)
from .phy import PROFILES
from .traces import load_trace, trace_stats
from .util import exact


def _positive_number(text):
    """Check that text is an exact number above 0, such as 2, 0.5 or 1/3;
    the text itself is kept, so output shows the value as it was given."""
    try:
        value = exact(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return text


def _finite_positive(text):
    """A _positive_number that is finite, as a float."""
    value = float(_positive_number(text))
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_table(rows, columns):
    cells = [[_fmt(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    print("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    for r in cells:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))


def _cmd_run(args):
    rows = run_experiment(args.config)
    _print_table(rows, CSV_COLUMNS)
    if args.config.csv_path:
        print(f"wrote {args.config.csv_path}")
    return 0


def _cmd_table2(args):
    rows = emit_table2(PROFILES[args.profile], control_rate=args.control_rate, n_max=args.n_max)
    print(f"{'n':>3} {'polls[us]':>12} {'multipoll[us]':>14} {'gain':>8}")
    for n, single, multi, gain in rows:
        print(f"{n:>3} {float(single):>12.2f} {float(multi):>14.2f} {float(gain):>8.4f}")
    return 0


def _cmd_validate(args):
    rows = validate_analytic(args.config)
    if not rows:
        print("error: no scenario delivered a frame in the measured window; nothing to compare",
              file=sys.stderr)
        return 1
    _print_table(rows, VALIDATION_COLUMNS)
    if args.config.csv_path:
        print(f"wrote {args.config.csv_path}")
    worst = max(r["rel_err"] for r in rows)
    print(f"max relative error: {worst:.4f} (bound {args.bound})")
    return 0 if worst < args.bound else 1


def _cmd_stats(args):
    trace = load_trace(args.trace)
    st = trace_stats(trace, window_s=exact(args.window))
    print(f"frames:            {len(trace)}")
    print(f"interval:          {float(trace.frame_interval_ms):g} ms")
    print(f"mean size:         {float(st.mean_size):.2f} bytes")
    print(f"max size:          {max(trace.sizes)} bytes")
    print(f"cov:               {st.cov:.4f}")
    print(f"mean bitrate:      {float(st.mean_bitrate):.1f} bit/s")
    print(f"peak bitrate:      {float(st.peak_bitrate):.1f} bit/s ({args.window}s window)")
    print(f"peak to mean:      {float(st.peak_to_mean):.3f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="hccasim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_t2 = sub.add_parser("table2", help="poll vs multi-poll airtime")
    p_t2.add_argument("--profile", choices=tuple(PROFILES), default="11g")
    p_t2.add_argument("--control-rate", type=_positive_int, default=2_000_000)
    p_t2.add_argument("--n-max", type=_positive_int, default=12)
    p_t2.set_defaults(func=_cmd_table2)

    p_val = sub.add_parser("validate-analytic", help="delay model vs simulation")
    p_val.add_argument("config")
    p_val.add_argument("--bound", type=_finite_positive, default=0.10, help="pass/fail error bound")
    p_val.set_defaults(func=_cmd_validate)

    p_st = sub.add_parser("stats", help="trace statistics")
    p_st.add_argument("trace")
    p_st.add_argument("--window", type=_positive_number, default="1", help="peak-rate window [s]")
    p_st.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None, config=None) -> int:
    """Run the command line argv; config, if given, is the config file it names, parsed."""
    args = build_parser().parse_args(argv)
    try:
        if "config" in vars(args):
            args.config = load_config(args.config) if config is None else config
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
