"""Adaptive TXOP sizing from piggybacked queue-size reports.

Every uplink data frame piggybacks the size of the station's next frame.
The AP keeps the latest report per station in a SizeLedger; the adaptive
schedulers consume it when they size the next interval's grant with
txop_adaptive, which covers exactly the reported bytes plus one MSDU's
overhead. A station with no report (first poll, lost frame, or nothing
left to send) falls back to the mean-based reference grant for one
interval.

The multi-poll variant additionally replaces the per-station polls with
one broadcast multi-poll carrying every grant of the interval, so each
slot sheds its own poll: multipoll_overhead is the single-poll overhead
minus one poll. The multi-poll frame's airtime is phy.airtime_multipoll.
"""

from fractions import Fraction

from .hcca import reference_overhead
from .phy import US_PER_S, PhyProfile, airtime_control
from .traces import Tspec
from .util import exact


class SizeLedger:
    """Queue-size reports received during the current service interval.

    Reports are consumed when the next interval's grants are built, so a
    stale report can never size more than one grant. A report of None
    (nothing left to send) drops any pending report.
    """

    def __init__(self):
        self._reports = {}

    def record(self, aid: int, size):
        if size is None:
            self._reports.pop(aid, None)
            return
        self._reports[aid] = int(size)

    def take(self, aid: int):
        """Pop and return the report for aid, or None if there is none."""
        return self._reports.pop(aid, None)


def txop_adaptive(reported_size: int, tspec: Tspec, overhead_us) -> Fraction:
    """Grant duration in microseconds for exactly the reported bytes at the
    stream's PHY rate, plus the given overhead.

    Deliberately unclamped: a report above the TSPEC maximum still gets a
    matching grant, the admission-time budget absorbs the excursion.
    """
    if reported_size < 0:
        raise ValueError("reported_size must be >= 0")
    t_payload = Fraction(reported_size * 8 * US_PER_S, tspec.min_phy_rate_bps)
    return t_payload + exact(overhead_us)


def multipoll_overhead(
    n_msdus: int,
    profile: PhyProfile,
    control_rate: int | None = None,
    data_rate_override: int | None = None,
) -> Fraction:
    """Per-TXOP overhead under the multi-poll scheme: the single-poll
    overhead minus the poll frame itself, which is amortized into the one
    broadcast multi-poll."""
    t_poll = airtime_control(profile, control_rate)
    return reference_overhead(n_msdus, profile, control_rate, data_rate_override) - t_poll
