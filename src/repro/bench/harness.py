"""Single-measurement harness.

Mirrors the OSU ``osu_allreduce`` methodology: warmup iterations, a
barrier, a timed loop of blocking allreduces, and the average per-call
latency reported from rank 0.  Payloads are symbolic by default (the
simulated time is identical and the host-side numpy work is skipped);
pass ``validate=True`` to carry real data and assert the result against
the numpy reference on every rank.

Repeated measurements on the same layout (sweeps, noisy repeats) should
pass a reusable :class:`~repro.mpi.runtime.SimSession` so each sample
skips machine construction; the session is reset before every run and
produces bit-identical timings to a fresh build.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from dataclasses import dataclass

from repro.errors import ReproError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.mpi.runtime import Runtime, SimSession
from repro.payload.ops import SUM, ReduceOp
from repro.payload.payload import DataPayload, SymbolicPayload

__all__ = ["allreduce_latency", "allreduce_latency_stats", "LatencyStats"]

#: The paper's microbenchmarks use MPI_FLOAT.
FLOAT_BYTES = 4


def allreduce_latency(
    config: MachineConfig,
    algorithm: Optional[str],
    nbytes: int,
    *,
    nranks: Optional[int] = None,
    ppn: Optional[int] = None,
    iterations: int = 3,
    warmup: int = 1,
    op: ReduceOp = SUM,
    validate: bool = False,
    trace: bool = False,
    noise: Optional[NoiseModel] = None,
    timeline=None,
    session: Optional[SimSession] = None,
    faults=None,
    fault_seed: int = 0,
    fidelity: Optional[str] = None,
    recovery=None,
    **alg_kwargs,
) -> float:
    """Average per-call allreduce latency (seconds).

    ``recovery`` attaches a resilience layer (a
    :class:`~repro.resilience.policy.RecoveryPolicy` or pre-built
    manager) so the measured job survives permanent link outages via
    failover instead of aborting — the latency then includes the
    restart.  With a ``session``, the session must have been built with
    the recovery layer (a runtime's recovery manager, like its
    fidelity, is fixed at construction).

    ``fidelity`` selects the collective execution mode (``"exact"`` |
    ``"hybrid"``; ``None`` consults ``REPRO_FIDELITY``).  With a
    ``session``, its fidelity must agree — a runtime's fidelity is
    fixed at construction.

    ``nbytes`` is the message size; the element count is
    ``nbytes / 4`` (MPI_FLOAT), minimum one element.

    ``session`` optionally supplies a pre-built
    :class:`~repro.mpi.runtime.SimSession` whose layout must match
    ``(config, nranks, ppn)``; the measurement then reuses its machine
    instead of constructing a fresh one.

    ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` (realised
    with ``fault_seed``) or a pre-realised injector into the run.  Note
    the OSU-style warmup+barrier absorbs arrival skew — the timed loop
    starts after every rank has arrived, so ``ArrivalSkew`` only shifts
    the job's wall clock here.  Use ``benchmarks/bench_pap_imbalance.py``
    (full-job elapsed, no barrier) to measure PAP sensitivity.
    """
    if nranks is None:
        if ppn is None:
            raise ReproError("allreduce_latency needs nranks (and usually ppn)")
        nranks = config.nodes * ppn
    count = max(1, nbytes // FLOAT_BYTES)

    def bench(comm):
        if validate:
            base = np.arange(count, dtype=np.float32) + float(comm.rank)
            payload = DataPayload(base)
        else:
            payload = SymbolicPayload(count, FLOAT_BYTES)
        for _ in range(warmup):
            result = yield from comm.allreduce(
                payload, op, algorithm=algorithm, **alg_kwargs
            )
        yield from comm.barrier()
        t0 = comm.now
        for _ in range(iterations):
            result = yield from comm.allreduce(
                payload, op, algorithm=algorithm, **alg_kwargs
            )
        elapsed = (comm.now - t0) / iterations
        if validate:
            expected = (
                np.arange(count, dtype=np.float32) * comm.size
                + sum(range(comm.size))
            )
            if not np.allclose(result.array, expected):
                raise ReproError(
                    f"allreduce validation failed on rank {comm.rank} "
                    f"(algorithm={algorithm!r})"
                )
        return elapsed

    if session is not None:
        if not session.matches(config, nranks, ppn):
            raise ReproError(
                f"session layout {session.key} does not match the requested "
                f"point ({config.name!r}, nranks={nranks}, ppn={ppn})"
            )
        if fidelity is not None and session.fidelity != fidelity:
            raise ReproError(
                f"session fidelity {session.fidelity!r} does not match the "
                f"requested {fidelity!r}"
            )
        if recovery is not None and session.recovery is None:
            raise ReproError(
                "recovery= needs a session built with the recovery layer "
                "(pass recovery= to SimSession)"
            )
        job = session.run(
            bench, noise=noise, timeline=timeline,
            faults=faults, fault_seed=fault_seed,
        )
    else:
        machine = Machine(
            config, nranks, ppn, trace=trace, noise=noise, timeline=timeline
        )
        if faults is not None:
            from repro.mpi.runtime import _as_injector

            machine.faults = _as_injector(faults, machine, fault_seed)
        job = Runtime(machine, fidelity=fidelity, recovery=recovery).launch(bench)
    # The slowest rank's window is the collective's completion latency
    # (matches how OSU reports max across ranks at scale).  Ranks lost
    # to a failover return None; only survivors report a window.
    return float(max(v for v in job.values if v is not None))


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution over repeated noisy runs."""

    mean: float
    std: float
    min: float
    max: float
    samples: tuple[float, ...]

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval of the mean."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        return 1.96 * self.std / n**0.5


def allreduce_latency_stats(
    config: MachineConfig,
    algorithm: Optional[str],
    nbytes: int,
    *,
    repeats: int = 5,
    sigma: float = 0.05,
    base_seed: int = 0,
    session: Optional[SimSession] = None,
    **kwargs,
) -> LatencyStats:
    """Latency statistics over ``repeats`` jittered runs.

    Mirrors the paper's methodology ("averages of a minimum of five
    runs"): each repeat uses a different noise seed; ``sigma=0``
    degenerates to ``repeats`` identical deterministic runs.  All
    repeats share one simulation session (the caller's, or one built
    here), so only the first pays machine construction.
    """
    if repeats < 1:
        raise ReproError("allreduce_latency_stats needs repeats >= 1")
    if session is None:
        nranks = kwargs.get("nranks")
        ppn = kwargs.get("ppn")
        if nranks is None and ppn is not None:
            nranks = config.nodes * ppn
        if nranks is not None:
            session = SimSession(config, nranks, ppn)
    samples = tuple(
        allreduce_latency(
            config,
            algorithm,
            nbytes,
            noise=NoiseModel(sigma=sigma, seed=base_seed + i),
            session=session,
            **kwargs,
        )
        for i in range(repeats)
    )
    arr = np.asarray(samples)
    return LatencyStats(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if repeats > 1 else 0.0,
        min=float(arr.min()),
        max=float(arr.max()),
        samples=samples,
    )
