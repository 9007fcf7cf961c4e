"""Host-speed probe: rescales host times to a reference machine speed.

On a virtual machine with two vCPUs on a shared Xeon host, host speed
drifts between two states about 1.5x apart, in phases of seconds, so a
raw wall time says as much about the neighbours as about the
simulator.  The probe is a fixed kernel owned
by the benchmark: a small discrete-event loop of generator processes
over a heap, the same kind of interpreter work the simulator does.  It
runs between requests, never inside one.  A request's host time is
multiplied by ``REFERENCE_S / probe``, the probe time averaged over the
probes just before and just after it, giving host seconds at the
reference speed.

Measured on that machine over 80 s of alternating
probes and allreduce points, rescaling cut the spread of few-second
averages from 15-16 % to 2-4 % of their mean.  The probe never calls
``repro``, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe time, in seconds, that defines the reference speed (the fast
#: state of the machine described above).
REFERENCE_S = 0.010

_PROCESSES = 2000
_STEPS = 6


def _process(index: int, table: dict):
    value = 0
    for step in range(_STEPS):
        value = yield (index * 31 + step * 17) % 97 + 1
        table[(index + step) % 4096] = value


def probe_seconds() -> float:
    """Host seconds for one run of the fixed kernel."""
    start = time.perf_counter()
    table: dict = {}
    procs = [_process(i, table) for i in range(_PROCESSES)]
    heap = []
    for i, proc in enumerate(procs):
        heap.append((next(proc), i, i))
    heapq.heapify(heap)
    seq = len(heap)
    while heap:
        now, _, i = heapq.heappop(heap)
        try:
            delay = procs[i].send(now)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, i))
        seq += 1
    return time.perf_counter() - start


class Speed:
    """Probes bracketing a sequence of requests."""

    def __init__(self):
        gc.collect()
        self.samples = [probe_seconds()]  #: every probe, seconds
        self._boundary = self.samples[0]  #: mean probe at the last boundary

    def bracket(self, host_seconds: float) -> float:
        """Probe after a request of ``host_seconds``; the factor that
        rescales its host time.

        Longer requests get more probes (one per 0.4 s, up to five), so
        the estimate of the speed they ran at is not left to one sample.
        Collects garbage first, so the probe and the next request start
        from the same heap state whatever ran before.
        """
        gc.collect()
        probes = [probe_seconds() for _ in range(max(1, min(5, round(host_seconds / 0.4))))]
        self.samples.extend(probes)
        before, self._boundary = self._boundary, sum(probes) / len(probes)
        return REFERENCE_S / ((before + self._boundary) / 2)


def rescaled_setup(seconds: float) -> float:
    """Set-up time rescaled by the mean of three probes taken after it."""
    probe = sum(probe_seconds() for _ in range(3)) / 3
    return seconds * REFERENCE_S / probe
