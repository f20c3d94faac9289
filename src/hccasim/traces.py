"""Video trace parsing, statistics, and TSPEC derivation.

Trace file format: ASCII text, one frame per line (a line ends at LF,
CR LF or CR) with 4 whitespace separated columns (sequence:int,
type:char in {I,P,B}, display_time_ms, size_bytes:int). Lines starting
with '#' and blank lines are ignored. A display time is an integer or
any form `Fraction` reads (`12.5`, `1e3`, `25/2`).

Text in the plain form is read in bulk: leading '#' lines of printable
ASCII, then only lines of exactly `<digits> <I|P|B> <digits> <digits>`,
single spaced, of at most 640 digits a number, the last line's newline
optional. The shipped traces and those of the benchmark are in this
form. All other text is read line by line and parses exactly as before,
with the same line-numbered errors; both readers feed one tail that
orders and checks the frames.

Trace files commonly list frames in decode order while the display time
column is presentation time, so display times are not monotone in file
order. The parser keeps the frames in generation order only: sorted by
display time, which must not repeat. The packet generation schedule and
the next-frame lookahead that stations piggyback both follow that order.

A parsed trace holds integers: sizes in bytes and display times over one
common denominator of a millisecond. The statistics are computed from
integer sums and return exact `Fraction`s. `derive_tspec` takes a
contract's mean MSDU size and mean rate from the same two means as
`trace_stats`, and its maximum MSDU size from the largest frame, without
the rest of the statistics.

The parser and `Tspec` check a trace and a contract where they enter and
raise `ConfigError`, naming the line of a bad frame; no display time is
negative, as no frame is generated before its stream starts.
"""

import itertools
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .util import exact_fields, read_text

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
        exact_fields(self, "mean_rate_bps", "delay_bound_s", "msi_s")
        if not (0 < self.mean_msdu_bytes <= self.max_msdu_bytes):
            raise ConfigError(
                f"need 0 < mean MSDU <= max MSDU, got {self.mean_msdu_bytes}/{self.max_msdu_bytes}"
            )
        if self.mean_rate_bps <= 0:
            raise ConfigError("mean rate must be > 0")
        if self.min_phy_rate_bps <= 0:
            raise ConfigError("min PHY rate must be > 0")
        if not (0 < self.msi_s <= self.delay_bound_s):
            raise ConfigError(
                f"need 0 < MSI <= delay bound, got MSI={self.msi_s}, D={self.delay_bound_s}"
            )


# Lines end at \n, \r\n or \r, as when a file is read in text mode.
_LINES = re.compile(r"\r\n?|\n").split
# The plain form's frame line. Its comment lines are printable ASCII, so
# they hold no \r. A number has at most 640 digits, the least limit that
# sys.set_int_max_str_digits can put on int(), so the bulk read's int()
# never raises; a longer one takes the line loop, which names its line.
_DIGITS = "[0-9]{1,640}"
_FRAME = f"{_DIGITS} [IPB] {_DIGITS} {_DIGITS}"
_FRAME_LINE = re.compile(_FRAME + "$", re.M).match
_FIRST_NOT_COMMENT = re.compile(r"^(?!#[\t -~]*$)", re.M).search
# a line break followed by anything but a frame line: one lookahead per
# line, as a group repeated over all lines would stack an entry per line
_BREAK_NOT_FRAME = re.compile(r"\n(?!" + _FRAME + "$)", re.M).search
_CHUNK = 1 << 14   # characters split into tokens at a time, bounding the token list


def _read_plain(text):
    """(display times, sizes, 1) of a trace in the plain form, else None.

    The plain form is leading '#' lines of printable ASCII, then at least
    one line of exactly `<digits> <I|P|B> <digits> <digits>`, single
    spaced, each number at most 640 digits, the last line break optional,
    and no size 0. Every check the line loop makes holds of such text, so
    it is read in bulk."""
    end = len(text) - text.endswith("\n")
    body = _FIRST_NOT_COMMENT(text, 0, end)
    if body is None:
        return None
    start = body.start()
    if not _FRAME_LINE(text, start, end) or _BREAK_NOT_FRAME(text, start, end):
        return None
    times, sizes = [], []
    while start < end:
        stop = text.find("\n", start + _CHUNK, end)
        if stop < 0:
            stop = end
        tokens = text[start:stop].split()
        times += map(int, tokens[2::4])
        sizes += map(int, tokens[3::4])
        start = stop + 1
    if min(sizes) == 0:
        return None   # the line loop names the line
    return times, sizes, 1


def _read_lines(text):
    """(display times, sizes, den) of any trace text, line by line; a
    display time is an int, or a Fraction over a divisor of den."""
    times, sizes = [], []
    den = 1
    for lineno, raw in enumerate(_LINES(text), start=1):
        cols = raw.split()
        if not cols or cols[0].startswith("#"):
            continue
        if len(cols) != 4:
            raise ConfigError(f"line {lineno}: expected 4 columns, got {len(cols)}")
        seq_s, type_s, time_s, size_s = cols
        try:
            seq = int(seq_s)
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric sequence {seq_s!r}") from None
        if type_s not in FRAME_TYPES:
            raise ConfigError(f"line {lineno}: unknown frame type {type_s!r}")
        try:
            display = int(time_s)
        except ValueError:
            # decimal, exponent or ratio forms; int and Fraction read integers alike
            try:
                display = Fraction(time_s)
            except ValueError:
                raise ConfigError(f"line {lineno}: non-numeric display time {time_s!r}") from None
            if display.denominator == 1:   # 40.0, 1e2: an integer after all
                display = display.numerator
            else:
                den = math.lcm(den, display.denominator)
        if display < 0:
            raise ConfigError(f"line {lineno}: display time must be >= 0, got {time_s}")
        try:
            size = int(size_s)
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric size {size_s!r}") from None
        if size <= 0:
            raise ConfigError(f"line {lineno}: size must be > 0")
        if seq < 0:
            raise ConfigError(f"line {lineno}: frame sequence must be >= 0, got {seq}")
        times.append(display)
        sizes.append(size)
    return times, sizes, den


def _in_generation_order(times, sizes, den) -> VideoTrace:
    """The trace both readers' frames make: times over den, sorted."""
    if not sizes:
        raise ConfigError("empty trace: no frame lines found")
    if den > 1:
        times = [t.numerator * (den // t.denominator) for t in times]
    if not all(map(operator.lt, times, times[1:])):
        order = sorted(range(len(times)), key=times.__getitem__)
        times = [times[i] for i in order]
        sizes = [sizes[i] for i in order]
    # the gaps over the common denominator; a single frame has interval 0
    gaps = list(map(operator.sub, times[1:], times))
    if 0 in gaps:
        raise ConfigError("display times are not strictly increasing after reorder")
    return VideoTrace(
        sizes=tuple(sizes),
        display=tuple(times),
        display_den=den,
        frame_interval_ms=Fraction(math.gcd(*gaps), den),
    )


def parse_trace(text: str) -> VideoTrace:
    """Parse a trace from its text: in bulk if it is in the plain form,
    else line by line."""
    return _in_generation_order(*(_read_plain(text) or _read_lines(text)))


def load_trace(path) -> VideoTrace:
    """Parse the trace file at path, which must be ASCII."""
    return parse_trace(read_text(path, "ASCII"))


def _means(trace: VideoTrace, window_s: Fraction = Fraction(1)):
    """(mean frame size [bytes], mean bit rate [bit/s]) of a trace: its
    bytes over its frames, and its bits over its display span plus one
    frame interval; a single-frame trace spans exactly one window_s."""
    sizes = trace.sizes
    total = sum(sizes)
    if len(sizes) == 1:
        rate = Fraction(total * 8) / window_s
    else:
        display = trace.display
        span_ms = Fraction(display[-1] - display[0], trace.display_den) + trace.frame_interval_ms
        rate = Fraction(total * 8000) / span_ms
    return Fraction(total, len(sizes)), rate


def trace_stats(trace: VideoTrace, window_s: Fraction = Fraction(1)) -> TraceStats:
    """Frame-size and bit-rate statistics over the whole trace.

    cov uses the population standard deviation. Bit rates aggregate over
    tumbling windows of window_s anchored at the first display time; a
    single-frame trace spans exactly one window by definition.
    """
    sizes = trace.sizes
    n = len(sizes)
    mean_size, mean_rate = _means(trace, window_s)
    # population variance sum(s^2) / n - mean^2, from an integer sum
    var = Fraction(sum(map(operator.mul, sizes, sizes)), n) - mean_size * mean_size
    cov = math.sqrt(float(var)) / float(mean_size)

    if n == 1:
        peak_rate = mean_rate
    else:
        display, den = trace.display, trace.display_den
        t0 = display[0]
        # window k holds the display times d with floor((d - t0) / den / (1000 window_s)) = k,
        # that is (d - t0) wden < (k + 1) num: the d below t0 + ceil((k + 1) num / wden)
        num, wden = window_s.numerator * 1000 * den, window_s.denominator
        before = [0, *itertools.accumulate(sizes)]   # before[i]: bytes of frames 0 .. i-1
        peak = lo = 0
        while lo < n:
            k = (display[lo] - t0) * wden // num
            hi = bisect_left(display, t0 + -(-(k + 1) * num // wden), lo)
            peak = max(peak, before[hi] - before[lo])
            lo = hi
        # traces shorter than one window would otherwise dilute the peak
        # below the mean; floor it so peak_to_mean stays well defined
        peak_rate = max(Fraction(peak * 8) / window_s, mean_rate)
    return TraceStats(
        mean_size=mean_size,
        cov=cov,
        mean_bitrate=mean_rate,
        peak_bitrate=peak_rate,
        peak_to_mean=peak_rate / mean_rate,
    )


def derive_tspec(trace: VideoTrace, delay_bound_s, min_rate_bps: int, msi_s) -> Tspec:
    """Build a traffic contract from a trace plus caller limits: the mean
    and maximum MSDU sizes and the mean rate are the trace's mean frame
    size, largest frame and mean bit rate, as trace_stats reads them. The
    mean MSDU size is the mean frame size rounded up, so at SI = frame
    interval the contract counts one MSDU per SI, as many as arrive."""
    mean_size, mean_rate = _means(trace)
    return Tspec(
        mean_msdu_bytes=math.ceil(mean_size),
        max_msdu_bytes=max(trace.sizes),
        mean_rate_bps=mean_rate,
        delay_bound_s=delay_bound_s,
        min_phy_rate_bps=min_rate_bps,
        msi_s=msi_s,
    )
