"""Video trace parsing, statistics, and TSPEC derivation.

Trace file format: plain text, one frame per line with 4 whitespace
separated columns (sequence:int, type:char in {I,P,B}, display_time_ms,
size_bytes:int). Lines starting with '#' and blank lines are ignored.

Trace files commonly list frames in decode order while the display time
column is presentation time, so display times are not monotone in file
order. The parser keeps the frames in generation order only: sorted by
display time, which must not repeat. The packet generation schedule and
the next-frame lookahead that stations piggyback both follow that order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidTspec, TraceParseError
from .util import exact

FRAME_TYPES = ("I", "P", "B")


@dataclass(frozen=True)
class TraceFrame:
    sequence: int
    frame_type: str           # one of I, P, B
    display_time_ms: Fraction
    size: int                 # bytes

    def __post_init__(self):
        if self.size <= 0:
            raise TraceParseError(f"frame {self.sequence}: size must be > 0")
        if self.sequence < 0:
            raise TraceParseError(f"frame sequence must be >= 0, got {self.sequence}")
        if self.frame_type not in FRAME_TYPES:
            raise TraceParseError(f"frame {self.sequence}: unknown frame type {self.frame_type!r}")


@dataclass(frozen=True)
class VideoTrace:
    """Parsed trace: its frames in generation order."""

    generation_frames: tuple   # the frames by strictly increasing display time
    frame_interval_ms: Fraction

    def __len__(self):
        return len(self.generation_frames)


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
        lines = text.splitlines()
    else:
        lines = list(text)
    frames = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split()
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
            display = Fraction(time_s)
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric display time {time_s!r}") from None
        try:
            size = int(size_s)
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric size {size_s!r}") from None
        if size <= 0:
            raise TraceParseError(f"line {lineno}: size must be > 0")
        frames.append(TraceFrame(seq, type_s, display, size))
    if not frames:
        raise TraceParseError("empty trace: no frame lines found")

    generation = tuple(sorted(frames, key=lambda f: f.display_time_ms))
    # the gaps as integers over one common denominator; a single frame has interval 0
    times = [f.display_time_ms for f in generation]
    den = math.lcm(*(t.denominator for t in times))
    ticks = [t.numerator * (den // t.denominator) for t in times]
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    if 0 in gaps:
        raise TraceParseError("display times are not strictly increasing after reorder")
    return VideoTrace(generation, Fraction(math.gcd(*gaps), den))


def load_trace(path) -> VideoTrace:
    with open(path, "r", encoding="ascii") as fh:
        return parse_trace(fh)


def trace_stats(trace: VideoTrace, window_s: Fraction = Fraction(1)) -> TraceStats:
    """Frame-size and bit-rate statistics over the whole trace.

    cov uses the population standard deviation. Bit rates aggregate over
    tumbling windows of window_s anchored at the first display time; a
    single-frame trace spans exactly one window by definition.
    """
    if window_s <= 0:
        raise ValueError("window must be > 0")
    frames = trace.generation_frames
    n = len(frames)
    sizes = [f.size for f in frames]
    total = sum(sizes)
    mean_size = Fraction(total, n)
    var = sum((Fraction(s) - mean_size) ** 2 for s in sizes) / n
    cov = math.sqrt(float(var)) / float(mean_size) if mean_size else 0.0

    if n == 1 or trace.frame_interval_ms == 0:
        duration_s = window_s
        mean_rate = Fraction(total * 8) / duration_s
        peak_rate = mean_rate
    else:
        span_ms = frames[-1].display_time_ms - frames[0].display_time_ms + trace.frame_interval_ms
        duration_s = span_ms / 1000
        mean_rate = Fraction(total * 8) / duration_s
        window_ms = window_s * 1000
        t0 = frames[0].display_time_ms
        buckets = {}
        for f in frames:
            k = (f.display_time_ms - t0) // window_ms
            buckets[k] = buckets.get(k, 0) + f.size * 8
        peak_rate = max(Fraction(bits) / window_s for bits in buckets.values())
        # traces shorter than one window would otherwise dilute the peak
        # below the mean; floor it so peak_to_mean stays well defined
        peak_rate = max(peak_rate, mean_rate)
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
