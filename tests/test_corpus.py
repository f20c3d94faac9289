"""Properties of the shipped trace files that scenarios rely on."""

from fractions import Fraction

import pytest

from hccasim.traces import derive_tspec, trace_stats

from conftest import ROOT, shipped_trace

TARGETS = {
    # name: (mean bytes, max bytes, cov, cov half-width)
    "jp1_high": (3820, 7500, 0.59, 0.0118),
    "jp1_low": (765, 1100, 0.22, 0.033),
    "f1_high": (4200, 9800, 0.42, 0.063),
    "f1_low": (860, 2600, 0.65, 0.0975),
}


def file_columns(name):
    """The trace file's four columns as strings, in file order."""
    lines = (ROOT / "traces" / f"{name}.txt").read_text().splitlines()
    return tuple(zip(*(line.split() for line in lines if line and not line.startswith("#"))))


@pytest.fixture(scope="module", params=sorted(TARGETS))
def corpus(request):
    return request.param, shipped_trace(request.param)


def test_shape(corpus):
    name, trace = corpus
    assert len(trace) == 13100
    seqs, _, times, _ = file_columns(name)
    # the file lists the frames in generation order, numbered from 0
    assert [int(s) for s in seqs] == list(range(13100))
    assert [int(t) for t in times] == list(trace.display)
    assert trace.display_den == 1
    assert list(trace.display) == [40 * k for k in range(13100)]
    assert trace.frame_interval_ms == 40


def test_gop_structure(corpus):
    name, _ = corpus
    gop = "IBBPBBPBBPBB"
    for k, frame_type in enumerate(file_columns(name)[1]):
        assert frame_type == gop[k % 12]


def test_exact_means_global_and_segmented(corpus):
    name, trace = corpus
    mean, _, _, _ = TARGETS[name]
    sizes = trace.sizes
    for a, b in ((0, 750), (750, 1000), (1000, 13100)):
        assert sum(sizes[a:b]) == mean * (b - a), (name, a, b)
    assert trace_stats(trace).mean_size == mean
    # 25 fps of mean-sized frames: 200 * mean bit/s, exactly
    assert trace_stats(trace).mean_bitrate == 200 * mean


def test_maximum_pinned(corpus):
    name, trace = corpus
    _, biggest, _, _ = TARGETS[name]
    sizes = trace.sizes
    assert max(sizes) == biggest
    assert min(sizes) >= 1


def test_cov_bands(corpus):
    name, trace = corpus
    _, _, cov, tol = TARGETS[name]
    assert abs(trace_stats(trace).cov - cov) <= tol, name


def test_tspec_derivation_round_numbers(corpus):
    name, trace = corpus
    mean, biggest, _, _ = TARGETS[name]
    tspec = derive_tspec(
        trace,
        delay_bound_s=Fraction("0.08"),
        min_rate_bps=36_000_000,
        msi_s=Fraction("0.04"),
    )
    assert tspec.mean_msdu_bytes == mean
    assert tspec.max_msdu_bytes == biggest
    assert tspec.mean_rate_bps == 200 * mean
