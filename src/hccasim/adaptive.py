"""Queue-size reports for the adaptive schedulers.

Every uplink data frame piggybacks the size of the station's next frame.
The AP keeps the latest report per station in a SizeLedger; the adaptive
schedulers consume it when they size the next interval's grant, which
the engine makes exactly the reported bytes plus one MSDU's overhead. A
station with no report (first poll, lost frame, or nothing left to send)
falls back to the mean-based reference grant for one interval.
"""


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
