"""Trace parsing, statistics, lookahead, and TSPEC derivation."""

import importlib.util
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hccasim import traces
from hccasim.analytic import analytic_inputs
from hccasim.errors import ConfigError
from hccasim.hcca import msdu_count
from hccasim.phy import PROFILE_11G, US_PER_S
from hccasim.traces import (
    TraceStats,
    Tspec,
    derive_tspec,
    load_trace,
    parse_trace,
    trace_stats,
)

from conftest import ROOT, inputs_us

# A decode-order fragment: display times jump backwards after each anchor
# frame, exercising the generation-order re-sort.
SAMPLE_DECODE_ORDER = """\
482 P 19320 946
483 B 19240 749
484 B 19280 748
485 P 19440 1230
486 B 19360 674
487 B 19400 685
488 P 19560 1208
489 B 19480 815
490 B 19520 804
491 I 19680 3159
492 B 19600 707
493 B 19640 645
"""


def two_frame_trace(sizes=(100, 300)):
    lines = [f"{i} P {40 * i} {s}" for i, s in enumerate(sizes)]
    return parse_trace("\n".join(lines))


def test_parse_fields():
    # fourth and tenth in the file, sixth and last by display time
    t = parse_trace(SAMPLE_DECODE_ORDER)
    assert t.display_den == 1
    assert t.display == tuple(range(19240, 19681, 40))
    assert t.sizes == (749, 748, 946, 674, 685, 1230, 815, 804, 1208, 707, 645, 3159)
    assert (t.display[5], t.sizes[5]) == (19440, 1230)
    assert (t.display[11], t.sizes[11]) == (19680, 3159)


def test_parse_skips_comments_and_blanks():
    t = parse_trace("# header\n\n1 I 0 100\n  \n2 B 40 50\n")
    assert len(t) == 2


def test_parse_rejects_unknown_frame_type():
    with pytest.raises(ConfigError, match="line 1.*unknown frame type"):
        parse_trace("485 X 19440 1230")


def test_parse_rejects_bad_columns():
    with pytest.raises(ConfigError, match="line 2"):
        parse_trace("1 I 0 100\n2 B 40\n")
    with pytest.raises(ConfigError, match="non-numeric size"):
        parse_trace("1 I 0 10x0")
    with pytest.raises(ConfigError, match="non-numeric sequence"):
        parse_trace("q I 0 100")


@pytest.mark.parametrize("time", ["-40", "-0.5"])
def test_parse_rejects_a_negative_display_time(time):
    # such a frame would be generated before its stream starts
    with pytest.raises(ConfigError, match="line 2: display time must be >= 0"):
        parse_trace(f"0 I 0 1000\n1 P {time} 1000\n2 B 40 1000\n3 P 80 1000")


def test_parse_names_the_line_of_a_negative_sequence():
    with pytest.raises(ConfigError, match="line 2: frame sequence must be >= 0"):
        parse_trace("0 I 0 1000\n-1 P 40 1000")


def test_parse_rejects_empty():
    with pytest.raises(ConfigError, match="empty trace"):
        parse_trace("# only a comment\n")


def test_parse_rejects_any_repeated_display_time():
    # a tie among frames that otherwise advance, in file order or after the re-sort
    for text in ("0 I 0 100\n1 P 0 200\n2 P 40 300", "0 I 0 1\n1 P 80 1\n2 B 40 1\n3 B 80 1"):
        with pytest.raises(ConfigError, match="not strictly increasing"):
            parse_trace(text)


def test_generation_order_sorted_by_display_time():
    t = parse_trace(SAMPLE_DECODE_ORDER)
    times = list(t.display)
    assert times == sorted(times)
    assert times[0] == 19240 and t.sizes[0] == 749
    assert t.frame_interval_ms == 40


def test_stats_two_frames():
    s = trace_stats(two_frame_trace())
    assert s.mean_size == 200
    assert s.cov == pytest.approx(0.5)
    assert s.mean_bitrate == Fraction(3200, Fraction(80, 1000))  # 40 kbit/s
    assert s.peak_bitrate >= s.mean_bitrate
    assert s.peak_to_mean == s.peak_bitrate / s.mean_bitrate


def test_stats_constant_sizes_zero_cov():
    t = parse_trace("\n".join(f"{i} B {40 * i} 100" for i in range(10)))
    s = trace_stats(t)
    assert s.cov == 0.0
    assert s.peak_to_mean == 1


def test_stats_single_frame():
    t = parse_trace("0 I 0 1000")
    s = trace_stats(t)
    assert s.cov == 0.0
    assert s.peak_to_mean == 1
    assert s.mean_size == 1000


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=20000), min_size=1, max_size=60),
)
def test_stats_invariants_hold(sizes):
    lines = [f"{i} B {40 * i} {s}" for i, s in enumerate(sizes)]
    s = trace_stats(parse_trace("\n".join(lines)))
    assert s.cov >= 0
    assert s.peak_bitrate >= s.mean_bitrate
    assert s.peak_to_mean >= 1
    assert min(sizes) <= s.mean_size <= max(sizes)


def test_derive_tspec_carries_stats():
    s = trace_stats(two_frame_trace())
    ts = derive_tspec(s, max_size=300, delay_bound_s=Fraction("0.08"), min_rate_bps=11_000_000,
                      msi_s=Fraction("0.04"))
    assert ts.mean_msdu_bytes == 200
    assert ts.max_msdu_bytes == 300
    assert ts.mean_rate_bps == s.mean_bitrate
    assert ts.msi_s == Fraction(1, 25)
    assert ts.delay_bound_s == Fraction(2, 25)


@pytest.mark.parametrize("sizes, exact_mean, mean", [
    ((100, 301), Fraction(401, 2), 201),
    ((100, 303), Fraction(403, 2), 202),
    ((1, 1, 2), Fraction(4, 3), 2),
])
def test_derive_tspec_takes_the_ceiling_of_a_fractional_mean(sizes, exact_mean, mean):
    s = trace_stats(two_frame_trace(sizes))
    assert s.mean_size == exact_mean
    ts = derive_tspec(s, max_size=max(sizes), delay_bound_s=Fraction("0.08"),
                      min_rate_bps=11_000_000, msi_s=Fraction("0.04"))
    assert ts.mean_msdu_bytes == mean


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=20000), min_size=2, max_size=40),
    interval_ms=st.integers(min_value=1, max_value=200),
)
def test_derived_contract_counts_one_msdu_per_frame_interval(sizes, interval_ms):
    """One frame arrives per SI at SI = frame interval, and the derived
    contract never counts more."""
    trace = parse_trace("\n".join(f"{i} P {interval_ms * i} {s}" for i, s in enumerate(sizes)))
    si = Fraction(interval_ms, 1000)
    ts = derive_tspec(trace_stats(trace), max(sizes), delay_bound_s=Fraction(1),
                      min_rate_bps=11_000_000, msi_s=si)
    assert msdu_count(si, ts.mean_rate_bps, ts.mean_msdu_bytes) == 1


def test_derive_tspec_rejects_msi_above_delay_bound():
    s = trace_stats(two_frame_trace())
    with pytest.raises(ConfigError):
        derive_tspec(s, max_size=300, delay_bound_s=Fraction("0.04"), min_rate_bps=11_000_000,
                     msi_s=Fraction("0.08"))


def test_tspec_invariants():
    with pytest.raises(ConfigError):
        Tspec(500, 400, 100000, Fraction(2, 25), 11_000_000, Fraction(1, 25))
    with pytest.raises(ConfigError):
        Tspec(500, 600, 0, Fraction(2, 25), 11_000_000, Fraction(1, 25))


# -- decimal display times against a plain-Fraction oracle ----------------

ORACLE_TSPEC = Tspec(500, 1000, Fraction(100_000), Fraction("0.08"), 1_000_000, Fraction("0.04"))


def oracle_interval(times):
    """The largest interval every display gap is a whole multiple of."""
    g = Fraction(0)
    for a, b in zip(times, times[1:]):
        gap = b - a
        g = Fraction(math.gcd(g.numerator * gap.denominator, gap.numerator * g.denominator),
                     g.denominator * gap.denominator)
    return g


def oracle_stats(times, sizes, window_s):
    """trace_stats computed frame by frame in Fractions of milliseconds."""
    n, total = len(sizes), sum(sizes)
    mean_size = Fraction(total, n)
    var = sum((Fraction(s) - mean_size) ** 2 for s in sizes) / n
    cov = math.sqrt(float(var)) / float(mean_size)
    if n == 1:
        mean_rate = peak_rate = Fraction(total * 8) / window_s
    else:
        span_ms = times[-1] - times[0] + oracle_interval(times)
        mean_rate = Fraction(total * 8) / (span_ms / 1000)
        buckets = {}
        for t, size in zip(times, sizes):
            k = math.floor((t - times[0]) / (window_s * 1000))
            buckets[k] = buckets.get(k, 0) + size * 8
        peak_rate = max(max(Fraction(bits) / window_s for bits in buckets.values()), mean_rate)
    return TraceStats(mean_size, cov, mean_rate, peak_rate, peak_rate / mean_rate)


def oracle_bins(times, sizes, si, m_intervals):
    """Bytes generated per service interval, binning Fraction times."""
    bins = [0] * m_intervals
    for t, size in zip(times, sizes):
        k = math.floor(t / (si * 1000))
        if 0 <= k < m_intervals:
            bins[k] += size
    return bins


@st.composite
def decimal_traces(draw):
    """(file text, display times in display order, sizes in display order):
    decimal display times such as 12.5 or 33.25, listed in shuffled order.
    Times may be padded to two places, so whole values read as 40.00."""
    den = draw(st.sampled_from([1, 2, 4, 5, 10, 100]))
    ticks = sorted(draw(st.sets(st.integers(0, 40_000), min_size=1, max_size=40)))
    sizes = draw(st.lists(st.integers(1, 20_000), min_size=len(ticks), max_size=len(ticks)))
    order = draw(st.permutations(range(len(ticks))))
    form = draw(st.sampled_from(["", ".2f"]))
    lines = [f"{i} {'IPB'[i % 3]} {Decimal(ticks[i]) / den:{form}} {sizes[i]}" for i in order]
    return "\n".join(lines), [Fraction(t, den) for t in ticks], sizes


@given(
    trace=decimal_traces(),
    window_s=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 10)]),
    si=st.sampled_from([Fraction(1, 25), Fraction(3, 50), Fraction(1, 30)]),
    m_intervals=st.integers(1, 12),
)
def test_decimal_display_times_match_fraction_oracle(trace, window_s, si, m_intervals):
    text, times, sizes = trace
    t = parse_trace(text)
    assert [Fraction(d, t.display_den) for d in t.display] == times
    assert list(t.sizes) == sizes
    assert t.frame_interval_ms == oracle_interval(times)
    assert trace_stats(t, window_s) == oracle_stats(times, sizes, window_s)
    inputs = analytic_inputs(t, 1, ORACLE_TSPEC, si, PROFILE_11G, m_intervals)
    rate = ORACLE_TSPEC.min_phy_rate_bps
    assert inputs_us(inputs)[1] == tuple(
        (Fraction(b * 8 * US_PER_S, rate),) for b in oracle_bins(times, sizes, si, m_intervals)
    )


def test_whole_decimal_display_times_stay_integers():
    # 40.0 and 1e2 take the Fraction path but name whole milliseconds
    t = parse_trace("0 I 0 10\n1 P 40.0 10\n2 B 1e2 10")
    assert t.display == (0, 40, 100)
    assert all(type(d) is int for d in t.display)
    assert t.display_den == 1
    assert t.frame_interval_ms == 20
    one = parse_trace("0 I 40.0 10")
    assert one.display == (40,) and type(one.display[0]) is int


def test_display_time_tokens_read_like_fractions():
    # the integer fast path and the Fraction fallback agree on every form
    t = parse_trace("0 I 1_000 10\n1 P +40 10\n2 B 12.5 10\n3 B 1e2 10\n4 P 51/4 10")
    assert [Fraction(d, t.display_den) for d in t.display] == [
        Fraction(25, 2), Fraction(51, 4), 40, 100, 1000,
    ]
    assert t.display_den == 4
    with pytest.raises(ConfigError, match="line 1: non-numeric display time '1__0'"):
        parse_trace("0 I 1__0 10")


# -- the bulk reader of plain text against the line loop ------------------

def outcome(parse, text):
    """What parse makes of text: a VideoTrace, or the ConfigError's text."""
    try:
        return parse(text)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def by_lines(text):
    """parse_trace as the line loop alone reads text."""
    return traces._in_generation_order(*traces._read_lines(text))


@st.composite
def plain_traces(draw):
    """(text, whether a size is 0): plain-form traces with leading comments,
    display times listed out of order and possibly repeated."""
    header = draw(st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126)), max_size=3))
    frames = draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from("IPB"),
                                     st.integers(0, 2000), st.integers(0, 20_000)),
                           min_size=1, max_size=30))
    lines = [f"#{c}" for c in header] + [f"{q} {k} {t} {s}" for q, k, t, s in frames]
    end = draw(st.sampled_from(["", "\n"]))
    return "\n".join(lines) + end, any(s == 0 for *_, s in frames)


@settings(max_examples=50, deadline=None)
@given(trace=plain_traces())
def test_the_bulk_reader_agrees_with_the_line_loop(trace):
    text, size_zero = trace
    # a size 0 is left to the line loop, which names its line
    assert (traces._read_plain(text) is None) == size_zero
    assert outcome(parse_trace, text) == outcome(by_lines, text)


NEAR_MISSES = [
    lambda line: line.replace(" ", "\t", 1),
    lambda line: line.replace(" ", "  ", 1),
    lambda line: line + "\r",
    lambda line: line + "\n# a comment after the first frame",
    lambda line: "\n" + line,                       # a blank line
    lambda line: " " + line,
    lambda line: line + " ",
    *(lambda line, time=time: " ".join([*line.split()[:2], time, line.split()[3]])
      for time in ["12.5", "1e2", "51/4", "1_000", "+40", "\u0664\u0660"]),
    lambda line: line + "\u0660",                   # an Arabic-Indic digit in a size
]


@settings(max_examples=50, deadline=None)
@given(trace=plain_traces(), case=st.sampled_from(range(len(NEAR_MISSES))), data=st.data())
def test_near_misses_of_the_plain_form_take_the_line_loop(trace, case, data):
    text, _ = trace
    lines = text.splitlines()
    frames = [i for i, line in enumerate(lines) if not line.startswith("#")]
    i = data.draw(st.sampled_from(frames))
    lines[i] = NEAR_MISSES[case](lines[i])
    missed = "\n".join(lines)
    assert traces._read_plain(missed) is None
    assert outcome(parse_trace, missed) == outcome(by_lines, missed)


def test_token_count_is_not_enough_for_the_plain_form():
    # 3 + 5 tokens make two frames' worth, but no line is a frame
    text = "5 B 200\n6 7 P 240 2763\n"
    assert traces._read_plain(text) is None
    with pytest.raises(ConfigError, match="line 1: expected 4 columns, got 3"):
        parse_trace(text)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_lines_end_as_in_a_file_read_as_text(tmp_path, newline):
    # a form feed ends no line; \r\n and \r end one, as \n does
    path = tmp_path / "t.txt"
    path.write_bytes(newline.join(["# c", "0 I 0\f100", "1 P 40 200", ""]).encode("ascii"))
    t = load_trace(path)
    assert (t.display, t.sizes) == ((0, 40), (100, 200))
    with pytest.raises(ConfigError, match="^line 3: expected 4 columns, got 3$"):
        parse_trace(newline.join(["# c", "0 I 0 100", "1 P 40", ""]))


@pytest.mark.parametrize("digits", [641, 5000])
@pytest.mark.parametrize("column", [0, 2, 3])
def test_a_number_too_long_for_the_bulk_reader_takes_the_line_loop(digits, column):
    # int() may be limited to as few as 640 digits, and by default refuses
    # over 4300, which the line loop turns into its line-numbered error
    cols = ["0", "I", "0", "100"]
    cols[column] = "1" * digits
    text = " ".join(cols) + "\n1 P 40 200\n"
    assert traces._read_plain(text) is None
    assert outcome(parse_trace, text) == outcome(by_lines, text)
    cols[column] = "1" * 640
    assert traces._read_plain(" ".join(cols)) is not None


def load_perfbench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_and_benchmark_traces_take_the_bulk_reader(tmp_path):
    rotated = load_perfbench_workloads().make("canonical", 1, tmp_path, ROOT)
    assert rotated.trace_offset > 0
    paths = [*sorted((ROOT / "traces").glob("*.txt")), tmp_path / "trace.txt"]
    for path in paths:
        text = path.read_text(encoding="ascii")
        assert traces._read_plain(text) is not None, path


def test_a_non_ascii_byte_names_the_file_and_its_offset(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("# caf\u00e9\n0 I 0 100\n".encode("utf-8"))
    with pytest.raises(ConfigError, match=f"^{path}: byte 0xc3 at offset 5 is not ASCII$"):
        load_trace(path)
