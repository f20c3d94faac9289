"""Trace parsing, statistics, lookahead, and TSPEC derivation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hccasim.errors import InvalidTspec, TraceParseError
from hccasim.traces import (
    Tspec,
    derive_tspec,
    parse_trace,
    trace_stats,
)

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
    f = t.generation_frames[5]
    assert (f.sequence, f.frame_type, f.display_time_ms, f.size) == (485, "P", 19440, 1230)
    i_frame = t.generation_frames[11]
    assert (i_frame.sequence, i_frame.frame_type, i_frame.size) == (491, "I", 3159)


def test_parse_skips_comments_and_blanks():
    t = parse_trace("# header\n\n1 I 0 100\n  \n2 B 40 50\n")
    assert len(t) == 2


def test_parse_rejects_unknown_frame_type():
    with pytest.raises(TraceParseError, match="line 1.*unknown frame type"):
        parse_trace("485 X 19440 1230")


def test_parse_rejects_bad_columns():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace("1 I 0 100\n2 B 40\n")
    with pytest.raises(TraceParseError, match="non-numeric size"):
        parse_trace("1 I 0 10x0")
    with pytest.raises(TraceParseError, match="non-numeric sequence"):
        parse_trace("q I 0 100")


def test_parse_rejects_empty():
    with pytest.raises(TraceParseError, match="empty trace"):
        parse_trace("# only a comment\n")


def test_parse_rejects_any_repeated_display_time():
    # a tie among frames that otherwise advance, in file order or after the re-sort
    for text in ("0 I 0 100\n1 P 0 200\n2 P 40 300", "0 I 0 1\n1 P 80 1\n2 B 40 1\n3 B 80 1"):
        with pytest.raises(TraceParseError, match="not strictly increasing"):
            parse_trace(text)


def test_generation_order_sorted_by_display_time():
    t = parse_trace(SAMPLE_DECODE_ORDER)
    gen = t.generation_frames
    times = [f.display_time_ms for f in gen]
    assert times == sorted(times)
    assert times[0] == 19240 and gen[0].size == 749
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
    ts = derive_tspec(s, max_size=300, delay_bound_s=0.08, min_rate_bps=11_000_000, msi_s=0.04)
    assert ts.mean_msdu_bytes == 200
    assert ts.max_msdu_bytes == 300
    assert ts.mean_rate_bps == s.mean_bitrate
    assert ts.msi_s == Fraction(1, 25)
    assert ts.delay_bound_s == Fraction(2, 25)


def test_derive_tspec_rejects_msi_above_delay_bound():
    s = trace_stats(two_frame_trace())
    with pytest.raises(InvalidTspec):
        derive_tspec(s, max_size=300, delay_bound_s=0.04, min_rate_bps=11_000_000, msi_s=0.08)


def test_tspec_invariants():
    with pytest.raises(InvalidTspec):
        Tspec(500, 400, 100000, Fraction(2, 25), 11_000_000, Fraction(1, 25))
    with pytest.raises(InvalidTspec):
        Tspec(500, 600, 0, Fraction(2, 25), 11_000_000, Fraction(1, 25))
