"""Fixed pieces of work that measure how fast the machine runs now.

On a shared virtual machine the same work can take twice as long from one
second to the next, and the share of slow seconds drifts over minutes.
The Sampler takes a short reading on a wall-clock timer (SIGALRM) all
through a timed run, so there are readings inside every op, not just
around it.  An op's time is then rescaled by how fast the readings inside
it ran compared with their reference time: runs made at different moments
read as if the machine ran at one fixed speed.  The readings use no
starcycle code, so a change to the program does not move them.  Reading
time spent inside an op is taken out of that op's time.

Each workload names the reading that does the kind of work its ops do
(READINGS): pure-Python integer and dict work for the exact side, which
is all interpreter time; and for the sampler, less of that plus first
touches of freshly mapped pages, because every large numpy temporary is
page-faulted in by the kernel, whose cost drifts with the host's memory
traffic and which interpreter work alone does not track.  On the exact
side the page-touching reading made the spread worse, not better (see
results/README.md).
"""

import bisect
import mmap
import signal
from collections import namedtuple
from time import perf_counter

# probe() time at the reference speed: the median on the machine that
# defined the benchmark (2-core x86-64 VM, Python 3.11), fast state.
PROBE_REF_S = 0.004
PROBE_ITERATIONS = 10000

# A Sampler reading: `iterations` loop turns plus `pages` first-touched
# pages, taken every `interval` seconds.  ref_s is its time at the
# reference speed: PROBE_REF_S pro rata for the interpreter reading, and
# the 10th percentile of 460 readings over 10 s on the machine that
# defined the benchmark for the other.
Reading = namedtuple("Reading", "iterations pages interval ref_s")
READINGS = {
    "interpreter": Reading(500, 0, 0.01, PROBE_REF_S * 500 / PROBE_ITERATIONS),
    "interpreter+pages": Reading(250, 128, 0.02, 0.0009),
}


def _work(iterations):
    acc = {}
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (i % 7, x % 5)
        acc[key] = acc.get(key, 0) + x % 1009
    return acc


def _touch(pages):
    """Map `pages` fresh anonymous pages and write one byte to each."""
    size = pages * mmap.PAGESIZE
    buf = mmap.mmap(-1, size)
    try:
        for offset in range(0, size, mmap.PAGESIZE):
            buf[offset] = 1
    finally:
        buf.close()


def probe():
    start = perf_counter()
    _work(PROBE_ITERATIONS)
    return perf_counter() - start


class Sampler:
    """Takes a reading of the named kind every reading.interval seconds of
    wall time while started.

    The handler runs between bytecodes of the main thread, so inside a long
    numpy call the reading waits until the call returns.  The readings'
    load is the same for every commit."""

    def __init__(self, kind):
        self.reading = READINGS[kind]
        self.interval = self.reading.interval
        self.starts, self.spans = [], []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        _work(self.reading.iterations)
        if self.reading.pages:
            _touch(self.reading.pages)
        self.starts.append(start)
        self.spans.append(perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def scaled(self, start, end):
        """(seconds at the reference speed, raw seconds) of the wall-clock
        window [start, end], both without the reading time inside it.

        While a reading takes p seconds the machine runs at ref_s/p of the
        reference speed, so the window's work is its time times the mean of
        ref_s/p over the readings in it.  The window is
        widened by one interval on each side, so a short op still has
        readings around it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.spans[first:last])
        lo = bisect.bisect_left(self.starts, start - self.interval)
        hi = bisect.bisect_left(self.starts, end + self.interval)
        readings = self.spans[lo:hi] or self.spans[max(lo - 1, 0):lo + 1]
        if not readings:
            raise RuntimeError("no readings near the window; was the sampler started?")
        return raw * self.reading.ref_s * sum(1.0 / p for p in readings) / len(readings), raw
