"""Video trace parsing, statistics, and TSPEC derivation.

Trace file format: plain text, one frame per line with 4 whitespace
separated columns (sequence:int, type:char in {I,P,B}, display_time_ms,
size_bytes:int). Lines starting with '#' and blank lines are ignored. A
display time is an integer or any form `Fraction` reads (`12.5`, `1e3`,
`25/2`).

Trace files commonly list frames in decode order while the display time
column is presentation time, so display times are not monotone in file
order. The parser keeps the frames in generation order only: sorted by
display time, which must not repeat. The packet generation schedule and
the next-frame lookahead that stations piggyback both follow that order.

A parsed trace holds integers: sizes in bytes and display times over one
common denominator of a millisecond. The statistics are computed from
integer sums and return exact `Fraction`s.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidTspec, TraceParseError
from .util import exact

FRAME_TYPES = ("I", "P", "B")


@dataclass(frozen=True)
class VideoTrace:
    """Parsed trace in generation order: frame i is sizes[i] bytes,
    displayed at display[i] / display_den ms, strictly increasing."""

    sizes: tuple               # int bytes
    display: tuple             # int, over display_den
    display_den: int           # the lcm of every display time's denominator [1/ms]
    frame_interval_ms: Fraction

    def __len__(self):
        return len(self.sizes)


@dataclass(frozen=True)
class TraceStats:
    mean_size: Fraction        # bytes
    cov: float                 # population std / mean
    mean_bitrate: Fraction     # bit/s
    peak_bitrate: Fraction     # bit/s
    peak_to_mean: Fraction


@dataclass(frozen=True)
class Tspec:
    """Per-stream traffic contract."""

    mean_msdu_bytes: int       # L
    max_msdu_bytes: int        # M
    mean_rate_bps: Fraction    # rho
    delay_bound_s: Fraction    # D
    min_phy_rate_bps: int      # R
    msi_s: Fraction            # maximum service interval

    def __post_init__(self):
        if not (0 < self.mean_msdu_bytes <= self.max_msdu_bytes):
            raise InvalidTspec(
                f"need 0 < mean MSDU <= max MSDU, got {self.mean_msdu_bytes}/{self.max_msdu_bytes}"
            )
        if self.mean_rate_bps <= 0:
            raise InvalidTspec("mean rate must be > 0")
        if self.min_phy_rate_bps <= 0:
            raise InvalidTspec("min PHY rate must be > 0")
        if not (0 < self.msi_s <= self.delay_bound_s):
            raise InvalidTspec(
                f"need 0 < MSI <= delay bound, got MSI={self.msi_s}, D={self.delay_bound_s}"
            )


def parse_trace(text) -> VideoTrace:
    """Parse a trace from a string, an open file, or an iterable of lines."""
    if isinstance(text, str):
        text = text.splitlines()
    times, sizes = [], []
    den = 1
    for lineno, raw in enumerate(text, start=1):
        cols = raw.split()
        if not cols or cols[0].startswith("#"):
            continue
        if len(cols) != 4:
            raise TraceParseError(f"line {lineno}: expected 4 columns, got {len(cols)}")
        seq_s, type_s, time_s, size_s = cols
        try:
            seq = int(seq_s)
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric sequence {seq_s!r}") from None
        if type_s not in FRAME_TYPES:
            raise TraceParseError(f"line {lineno}: unknown frame type {type_s!r}")
        try:
            display = int(time_s)
        except ValueError:
            # decimal, exponent or ratio forms; int and Fraction read integers alike
            try:
                display = Fraction(time_s)
            except ValueError:
                raise TraceParseError(f"line {lineno}: non-numeric display time {time_s!r}") from None
            if display.denominator == 1:   # 40.0, 1e2: an integer after all
                display = display.numerator
            else:
                den = math.lcm(den, display.denominator)
        try:
            size = int(size_s)
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric size {size_s!r}") from None
        if size <= 0:
            raise TraceParseError(f"line {lineno}: size must be > 0")
        if seq < 0:
            raise TraceParseError(f"frame sequence must be >= 0, got {seq}")
        times.append(display)
        sizes.append(size)
    if not sizes:
        raise TraceParseError("empty trace: no frame lines found")

    if den > 1:
        times = [t.numerator * (den // t.denominator) for t in times]
    order = sorted(range(len(times)), key=times.__getitem__)
    times = [times[i] for i in order]
    # the gaps over the common denominator; a single frame has interval 0
    gaps = [b - a for a, b in zip(times, times[1:])]
    if 0 in gaps:
        raise TraceParseError("display times are not strictly increasing after reorder")
    return VideoTrace(
        sizes=tuple(sizes[i] for i in order),
        display=tuple(times),
        display_den=den,
        frame_interval_ms=Fraction(math.gcd(*gaps), den),
    )


def load_trace(path) -> VideoTrace:
    with open(path, "r", encoding="ascii") as fh:
        return parse_trace(fh)


def trace_stats(trace: VideoTrace, window_s: Fraction = Fraction(1)) -> TraceStats:
    """Frame-size and bit-rate statistics over the whole trace.

    cov uses the population standard deviation. Bit rates aggregate over
    tumbling windows of window_s anchored at the first display time; a
    single-frame trace spans exactly one window by definition.
    """
    window_s = exact(window_s)
    if window_s <= 0:
        raise ValueError("window must be > 0")
    sizes = trace.sizes
    n = len(sizes)
    total = sum(sizes)
    mean_size = Fraction(total, n)
    # population variance (n*sum(s^2) - sum(s)^2) / n^2, from integer sums
    var = Fraction(n * sum(s * s for s in sizes) - total * total, n * n)
    cov = math.sqrt(float(var)) / float(mean_size)

    if n == 1:
        mean_rate = peak_rate = Fraction(total * 8) / window_s
    else:
        display, den = trace.display, trace.display_den
        t0 = display[0]
        span_ms = Fraction(display[-1] - t0, den) + trace.frame_interval_ms
        mean_rate = Fraction(total * 8000) / span_ms
        # window k holds the display times d with floor((d - t0) / den / (1000 window_s)) = k
        num, wden = window_s.numerator * 1000 * den, window_s.denominator
        buckets = {}
        for t, size in zip(display, sizes):
            k = (t - t0) * wden // num
            buckets[k] = buckets.get(k, 0) + size
        # traces shorter than one window would otherwise dilute the peak
        # below the mean; floor it so peak_to_mean stays well defined
        peak_rate = max(Fraction(max(buckets.values()) * 8) / window_s, mean_rate)
    return TraceStats(
        mean_size=mean_size,
        cov=cov,
        mean_bitrate=mean_rate,
        peak_bitrate=peak_rate,
        peak_to_mean=peak_rate / mean_rate,
    )


def derive_tspec(
    stats: TraceStats,
    max_size: int,
    delay_bound_s,
    min_rate_bps: int,
    msi_s,
) -> Tspec:
    """Build a traffic contract from measured statistics plus caller limits."""
    mean = int(stats.mean_size) if stats.mean_size.denominator == 1 else int(round(float(stats.mean_size)))
    return Tspec(
        mean_msdu_bytes=mean,
        max_msdu_bytes=max_size,
        mean_rate_bps=Fraction(stats.mean_bitrate),
        delay_bound_s=exact(delay_bound_s),
        min_phy_rate_bps=min_rate_bps,
        msi_s=exact(msi_s),
    )
