"""Selection tables: every per-size, per-scale algorithm decision.

The paper's hybrid design is one decision made per call — "a
combination of several different communication algorithms that
dynamically choose the best algorithm for different message sizes and
system sizes" (Sections 4 and 6.4).  Every table-driven entry here
makes it the same way: a table is an ordered sequence of :class:`Row`
s, and :func:`select` returns the first row whose limits all hold.

* :func:`allreduce_dpml_tuned` — the proposed design: per-cluster
  tables (:data:`TUNING_TABLES`) of DPML leader counts, pipelined DPML
  and SHArP designs, produced by :func:`autotune_cluster`;
* :func:`allreduce_mvapich2` / :func:`allreduce_intel_mpi` — the
  production libraries the paper compares against, emulated as tables:
  MVAPICH2-2.2's single-leader shm hierarchy (one leader shoulders all
  ``(ppn-1) * n`` combine work) and Intel-MPI-2017's flat algorithms,
  which age better on KNL's slow cores;
* :func:`allreduce_flat_auto` — the flat-only table DPML's phase 3
  uses (it must never pick a hierarchical scheme, which would recurse);
* :func:`reduce_auto` / :func:`bcast_auto` — the same for the rooted
  collectives;
* :func:`allreduce_adaptive` — online selection: explore the
  :data:`DEFAULT_CANDIDATES` rows once per size bucket, then lock in
  the fastest.

Every choice dispatches through
:func:`~repro.mpi.collectives.registry.resolve_collective`, where hybrid
fidelity wraps the chosen algorithm and counts planless fallbacks.
Library thresholds are tuning parameters, not measurements; see
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional, Sequence

import numpy as np

from repro.machine.clusters import preset_name
from repro.machine.config import MachineConfig
from repro.payload.ops import MAX, ReduceOp
from repro.payload.payload import DataPayload, Payload

__all__ = [
    "Row",
    "select",
    "is_multinode",
    "TUNING_TABLES",
    "FALLBACK_TABLE",
    "DEFAULT_CANDIDATES",
    "AdaptiveState",
    "allreduce_dpml_tuned",
    "allreduce_flat_auto",
    "allreduce_mvapich2",
    "allreduce_intel_mpi",
    "allreduce_adaptive",
    "reduce_auto",
    "bcast_auto",
    "autotune_cluster",
]

INF = float("inf")


@dataclass(frozen=True)
class Row:
    """One table row: an algorithm, its keywords, and when it applies.

    A row holds when the message is at most ``max_bytes``, the
    communicator has at most ``max_ranks`` ranks and, if
    ``single_node`` is set, lives on one node.
    """

    algorithm: str  #: registry name of the collective to run
    kwargs: dict = field(default_factory=dict)  #: its keyword arguments
    max_bytes: float = INF
    max_ranks: float = INF
    single_node: bool = False


def is_multinode(comm) -> bool:
    """Whether the communicator spans more than one node."""
    cached = comm.cache.get("is-multinode")
    if cached is None:
        machine = comm.machine
        first = machine.node_of(comm.translate(0))
        cached = any(
            machine.node_of(comm.translate(r)) != first for r in range(1, comm.size)
        )
        comm.cache["is-multinode"] = cached
    return cached


def select(table: Sequence[Row], comm, nbytes: int) -> Row:
    """The first row of ``table`` whose limits hold for this call.

    Rows that need SHArP (``sharp_*``) are skipped on machines without
    it; when no row holds, the last row is the answer.
    """
    for row in table:
        if (
            nbytes <= row.max_bytes
            and comm.size <= row.max_ranks
            and not (row.single_node and is_multinode(comm))
            and not (
                row.algorithm.startswith("sharp") and comm.machine.sharp is None
            )
        ):
            return row
    return table[-1]


def _run_selected(kind: str, table, comm, nbytes: int, *args, **kwargs) -> Generator:
    """Select a row and run it through the registry's dispatch point."""
    from repro.mpi.collectives.registry import resolve_collective

    row = select(table, comm, nbytes)
    fn = resolve_collective(kind, row.algorithm, comm)
    result = yield from fn(comm, *args, **kwargs, **row.kwargs)
    return result


# Per-cluster tables produced by autotune_cluster at 16 nodes full
# subscription (``python -m repro.bench autotune``).  The pattern
# matches Section 6.2: one/few leaders for small messages, more leaders
# as the message grows, SHArP for tiny messages where available,
# pipelined DPML for very large messages.
TUNING_TABLES: dict[str, tuple[Row, ...]] = {
    "cluster-a": (
        Row("sharp_socket_leader", max_bytes=512),
        Row("dpml", {"leaders": 4}, max_bytes=2048),
        Row("dpml", {"leaders": 8}, max_bytes=8192),
        Row("dpml", {"leaders": 16}, max_bytes=131072),
        Row("dpml_pipelined", {"leaders": 16}),
    ),
    "cluster-b": (
        Row("dpml", {"leaders": 1}, max_bytes=64),
        Row("dpml", {"leaders": 2}, max_bytes=512),
        Row("dpml", {"leaders": 4}, max_bytes=2048),
        Row("dpml", {"leaders": 8}, max_bytes=8192),
        Row("dpml", {"leaders": 16}, max_bytes=131072),
        Row("dpml_pipelined", {"leaders": 16}),
    ),
    "cluster-c": (
        Row("dpml", {"leaders": 1}, max_bytes=64),
        Row("dpml", {"leaders": 2}, max_bytes=512),
        Row("dpml", {"leaders": 4}, max_bytes=2048),
        Row("dpml", {"leaders": 8}, max_bytes=8192),
        Row("dpml", {"leaders": 16}, max_bytes=131072),
        Row("dpml_pipelined", {"leaders": 16}, max_bytes=524288),
        Row("dpml", {"leaders": 16}),
    ),
    "cluster-d": (
        Row("dpml", {"leaders": 1}, max_bytes=64),
        Row("dpml", {"leaders": 4}, max_bytes=512),
        Row("dpml", {"leaders": 8}, max_bytes=2048),
        Row("dpml", {"leaders": 16}, max_bytes=131072),
        Row("dpml_pipelined", {"leaders": 16}, max_bytes=524288),
        Row("dpml", {"leaders": 16}),
    ),
}

#: The table of machines that are no cluster preset.
FALLBACK_TABLE: tuple[Row, ...] = (
    Row("dpml", {"leaders": 1}, max_bytes=2048),
    Row("dpml", {"leaders": 4}, max_bytes=16384),
    Row("dpml", {"leaders": 8}, max_bytes=131072),
    Row("dpml", {"leaders": 16}),
)

#: Flat only: recursive doubling, Rabenseifner, and the ring while its
#: 2(p-1) rounds still pay off.
FLAT_AUTO = (
    Row("recursive_doubling", max_ranks=2),
    Row("recursive_doubling", max_bytes=8192),
    Row("rabenseifner", max_bytes=524288),
    Row("ring", max_ranks=64),
    Row("rabenseifner"),
)

INTEL_MPI = (
    Row("recursive_doubling", max_bytes=4096),
    Row("rabenseifner", max_bytes=65536),
    Row("ring", max_ranks=64),
    Row("rabenseifner"),
)

#: Within a node the shm scheme is used at every size.
MVAPICH2 = (
    Row("hierarchical", single_node=True),
    Row("hierarchical", {"inter_algorithm": "recursive_doubling"}, max_bytes=16384),
    Row("hierarchical", {"inter_algorithm": "rabenseifner"}, max_bytes=524288),
    Row("rabenseifner"),
)

REDUCE_AUTO = (
    Row("binomial", max_bytes=4096),
    Row("knomial", max_bytes=16384),
    Row("knomial", single_node=True),
    Row("dpml"),
)

BCAST_AUTO = (
    Row("binomial", max_bytes=8192, max_ranks=8),
    Row("knomial", max_bytes=8192),
    Row("scatter_ring", single_node=True),
    Row("dpml"),
)

#: Configurations the adaptive explorer tries, in order: the DPML
#: leader ladder (the paper's own tuning axis), the classic flat
#: baselines, then the literature families so the selector can beat
#: DPML with a competing design when the topology favours one.
DEFAULT_CANDIDATES: tuple[Row, ...] = (
    Row("dpml", {"leaders": 1}),
    Row("dpml", {"leaders": 4}),
    Row("dpml", {"leaders": 16}),
    Row("rabenseifner"),
    Row("recursive_doubling"),
    Row("dualroot_pipelined"),
    Row("optimal_rsag"),
    Row("generalized"),
)


def allreduce_dpml_tuned(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    table: Optional[Sequence[Row]] = None,
) -> Generator:
    """The proposed hybrid design: per-size best DPML/SHArP variant.

    ``table`` overrides the machine's tuning table; scaled builds of a
    preset (``cluster-b-x16``) use the preset's table.
    """
    if table is None:
        name = preset_name(comm.machine.config.name)
        table = TUNING_TABLES.get(name, FALLBACK_TABLE)
    result = yield from _run_selected(
        "allreduce", table, comm, payload.nbytes, payload, op, tag_base=tag_base
    )
    return result


def allreduce_flat_auto(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Flat algorithm by size: RD -> Rabenseifner -> ring."""
    result = yield from _run_selected(
        "allreduce", FLAT_AUTO, comm, payload.nbytes, payload, op, tag_base=tag_base
    )
    return result


def allreduce_mvapich2(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """MVAPICH2-2.2-style selection (single-leader shm hierarchy)."""
    result = yield from _run_selected(
        "allreduce", MVAPICH2, comm, payload.nbytes, payload, op, tag_base=tag_base
    )
    return result


def allreduce_intel_mpi(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Intel-MPI-2017-style selection (flat algorithms throughout)."""
    result = yield from _run_selected(
        "allreduce", INTEL_MPI, comm, payload.nbytes, payload, op, tag_base=tag_base
    )
    return result


def reduce_auto(
    comm, payload: Payload, op: ReduceOp, root: int = 0, tag_base: int = 0
) -> Generator:
    """Reduce selector: binomial tree for small, k-nomial for medium,
    multi-leader DPML reduce for large multi-node vectors."""
    result = yield from _run_selected(
        "reduce", REDUCE_AUTO, comm, payload.nbytes, payload, op,
        root=root, tag_base=tag_base,
    )
    return result


def bcast_auto(comm, payload, root: int = 0, tag_base: int = 0) -> Generator:
    """Bcast selector: binomial for small, k-nomial for medium,
    scatter+ring for large flat jobs, multi-leader for large multi-node.

    Like ``MPI_Bcast``, every rank knows the count: non-root ranks must
    pass a placeholder payload of the same count (its contents are
    ignored), so the size-based selection agrees everywhere.
    """
    from repro.errors import MPIError

    if payload is None:
        raise MPIError(
            "bcast_auto needs the message size on every rank; non-root "
            "ranks must pass a placeholder payload of the same count"
        )
    nbytes = payload.nbytes
    if comm.rank != root:
        payload = None  # contents are the root's to provide
    result = yield from _run_selected(
        "bcast", BCAST_AUTO, comm, nbytes, payload, root=root, tag_base=tag_base
    )
    return result


@dataclass
class AdaptiveState:
    """Exploration state of one (communicator, size-bucket) pair."""

    candidates: Sequence[Row]
    agreed_costs: list[float] = field(default_factory=list)
    locked: Optional[int] = None  #: index of the winner once decided

    @property
    def exploring(self) -> bool:
        """Whether unexplored candidates remain."""
        return self.locked is None

    def next_candidate(self) -> int:
        """Index of the configuration to run on this call."""
        if self.locked is not None:
            return self.locked
        return len(self.agreed_costs)

    def record(self, agreed_cost: float) -> None:
        """Store one candidate's agreed cost; lock when all are in."""
        self.agreed_costs.append(agreed_cost)
        if len(self.agreed_costs) == len(self.candidates):
            self.locked = int(np.argmin(self.agreed_costs))


def allreduce_adaptive(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    candidates: Optional[Sequence[Row]] = None,
) -> Generator:
    """Allreduce with online per-size-bucket algorithm selection.

    Production MPI libraries increasingly tune *online*: per
    power-of-two size bucket this cycles through the candidate rows
    (one per call), *agrees* on each candidate's cost via an 8-byte
    MAX-allreduce of the locally observed latency (all ranks must pick
    the same winner or the job would deadlock on mismatched
    algorithms), and afterwards always uses the fastest.

    On a degraded communicator (a recovery manager has confirmed dead
    nodes) exploration is skipped entirely and the policy's
    topology-agnostic ``fallback_algorithm`` runs instead: tuned
    crossover points and DPML/SHArP leader layouts were learned for the
    healthy topology, and the shrunk one may not even be homogeneous.
    The decision is logged once per communicator context in
    ``JobResult.counters["resilience"]["fallbacks"]``.
    """
    from repro.mpi.collectives.registry import resolve_allreduce

    manager = getattr(comm.runtime, "recovery", None)
    if manager is not None and manager.degraded:
        name = manager.policy.fallback_algorithm
        manager.record_fallback("adaptive", name, comm.group.context)
        fn = resolve_allreduce(name, comm)
        result = yield from fn(comm, payload, op, tag_base=tag_base)
        return result

    candidates = tuple(candidates or DEFAULT_CANDIDATES)
    bucket = payload.nbytes.bit_length()
    key = (
        "adaptive",
        bucket,
        tuple((row.algorithm, tuple(sorted(row.kwargs.items()))) for row in candidates),
    )
    state: AdaptiveState = comm.cache.get(key)
    if state is None:
        state = AdaptiveState(candidates=candidates)
        comm.cache[key] = state

    row = candidates[state.next_candidate()]
    fn = resolve_allreduce(row.algorithm, comm)

    t0 = comm.now
    result = yield from fn(comm, payload, op, tag_base=tag_base, **row.kwargs)
    local_cost = comm.now - t0

    if state.exploring:
        # Agree on the candidate's cost (max across ranks) through a
        # fixed, self-contained algorithm so every rank locks in the
        # same winner.
        cost_payload = DataPayload(np.array([local_cost]))
        agreed = yield from comm.allreduce(
            cost_payload, MAX, algorithm="recursive_doubling"
        )
        state.record(float(agreed.array[0]))
    return result


AUTOTUNE_SIZES = (64, 512, 2048, 8192, 32768, 131072, 524288, 2097152)
AUTOTUNE_LEADER_COUNTS = (1, 2, 4, 8, 16)


def autotune_cluster(
    config: MachineConfig,
    *,
    ppn: int = 28,
    sizes: Sequence[int] = AUTOTUNE_SIZES,
    leader_counts: Sequence[int] = AUTOTUNE_LEADER_COUNTS,
    iterations: int = 2,
    verbose: bool = False,
) -> list[Row]:
    """Regenerate a tuning table empirically (paper Section 6.4).

    "We performed empirical evaluation of different configurations on
    the four clusters and chose the best configuration for each message
    size."  Every candidate — DPML at each leader count up to ``ppn``,
    pipelined DPML from four leaders, the SHArP designs where the
    switch supports them — runs at every size; the fastest becomes the
    row for that size, and the last row covers everything larger.
    """
    from repro.bench.harness import allreduce_latency

    leaders = [l for l in leader_counts if l <= ppn]
    candidates = [Row("dpml", {"leaders": l}) for l in leaders]
    candidates += [Row("dpml_pipelined", {"leaders": l}) for l in leaders if l >= 4]
    if config.sharp is not None:
        candidates += [Row("sharp_node_leader"), Row("sharp_socket_leader")]
    table: list[Row] = []
    for size in sizes:
        best, best_time = None, INF
        for row in candidates:
            t = allreduce_latency(
                config, row.algorithm, size, ppn=ppn, iterations=iterations,
                **row.kwargs,
            )
            if verbose:
                print(f"  {size:>9}B {row.algorithm:>20}{row.kwargs} "
                      f"{t * 1e6:10.2f} us")
            if t < best_time:
                best_time, best = t, row
        table.append(replace(best, max_bytes=float(size)))
        if verbose:
            print(f"{size:>9}B -> {best.algorithm} {best.kwargs}")
    table[-1] = replace(table[-1], max_bytes=INF)
    return table
