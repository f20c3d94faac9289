"""Host speed, sampled beside the program so host times can be put on a
fixed scale.

On a shared host a virtual CPU does not run at one speed: when the other
hardware thread of its core or a neighbour is busy it runs up to half
again as slowly, the mix changes from one second to the next and drifts
over minutes, and process time shows it as much as wall time. On a 2-vCPU
Intel Xeon VM (2.0 GHz, Python 3.11.7) one pass of the canonical
workload, same code and inputs, took 5.0 s and 6.9 s ten minutes apart.
Times compared across runs minutes apart need that drift taken out.

A fixed pure-Python reference workload (exact ``Fraction`` arithmetic,
frozen-dataclass ``replace``, a ``heapq`` event queue and dict counters:
the operations the simulator spends its time on) runs about every
``PERIOD_S`` of wall time, from a ``SIGALRM`` interval timer while the
program runs, and at the start and end of every timed step. Each run
measures the host's speed at that moment. The program's time between two
reference runs is scaled by the mean of their two times:

    host seconds x REFERENCE_S / mean of the two reference times

that is, put in seconds at the speed at which the reference workload
takes ``REFERENCE_S``. The speed changes within a second, so the
reference runs are short and frequent. A timer needs no hook in the
program: it samples wherever the program spends its time. The reference
workload uses no code of the program, so a change to the program moves
only the host seconds, and its own time is never counted as the
program's.
"""

import gc
import heapq
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import pairwise

PERIOD_S = 0.1

# Mean time of one reference workload on the VM named above, Python
# 3.11.7: the speed reported times are scaled to.
REFERENCE_S = 0.01

# What one reference workload returns; anything else means it did not run
# the work it is timed for.
EXPECTED = (1000, 84386)


@dataclass(frozen=True)
class _Slot:
    station: int
    start: Fraction
    size: int


def reference_work(n=300):
    heap, clock, served = [], Fraction(0), {}
    slot = _Slot(0, Fraction(0), 0)
    for i in range(n):
        clock += Fraction(i % 97 + 1, 1000) * Fraction(3, 7)
        slot = replace(slot, station=i % 12, start=clock, size=(i * 7919) % 7500)
        heapq.heappush(heap, (slot.start + Fraction(slot.size, 54), i, slot))
        if len(heap) > 64:
            _, _, done = heapq.heappop(heap)
            served[done.station] = served.get(done.station, 0) + done.size // 8
    return len(served) * 1000 // 12, sum(served.values())


class HostSpeed:
    """Reference workload runs, as (start, end) host times in the order
    they were taken."""

    def __init__(self):
        self.spans = []
        self._busy = False

    def sample(self):
        """Run the reference workload once. The collector is off so the
        program's live objects do not bill the reference workload for
        their scans. Returns the index of the run in ``spans``; a timer
        tick that lands inside a run is dropped."""
        if self._busy:
            return None
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            check = reference_work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        if check != EXPECTED:
            raise RuntimeError(f"reference workload returned {check}, not {EXPECTED}")
        self.spans.append((t0, t1))
        return len(self.spans) - 1

    @contextmanager
    def sampling(self):
        """Sample every PERIOD_S of wall time while the block runs."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def between(self, first, last):
        """(host seconds, scaled seconds) of the program between reference
        runs first and last, leaving out the reference runs."""
        host = scaled = 0.0
        for (a0, a1), (b0, b1) in pairwise(self.spans[first:last + 1]):
            host += b0 - a1
            scaled += (b0 - a1) * 2 * REFERENCE_S / ((a1 - a0) + (b1 - b0))
        return host, scaled
