"""Algorithm registries: names → collective implementations.

One registry per collective kind (allreduce, reduce, bcast, allgather,
reduce_scatter, gather, scatter, barrier), mirroring an MPI library's
collective tuning framework.  Population is lazy to keep import order
flexible (the DPML algorithms live in :mod:`repro.core`, which itself
talks back to the registry for its inter-node stages).
"""

from __future__ import annotations

import threading
from typing import Callable, Generator, Optional

from repro.errors import TuningError

__all__ = [
    "register_allreduce",
    "resolve_allreduce",
    "available_algorithms",
    "register_collective",
    "resolve_collective",
    "available_collectives",
    "register_phase_plan",
    "resolve_phase_plan",
]

CollectiveFn = Callable[..., Generator]

_REGISTRIES: dict[str, dict[str, CollectiveFn]] = {}
_PHASE_PLANS: dict = {}
#: set the moment population *starts* (same-thread reentrancy guard —
#: the repro.core imports below may resolve back through the registry)
_POPULATED = False
#: set only once population has *finished* (lock-free fast path)
_READY = False
_POPULATE_LOCK = threading.RLock()

#: Default algorithm per collective kind — the "state of the art"
#: library behaviour the paper compares against.
_DEFAULTS = {
    "allreduce": "mvapich2",
    "reduce": "binomial",
    "bcast": "binomial",
    "allgather": "recursive_doubling",
    "reduce_scatter": "recursive_halving",
    "gather": "binomial",
    "scatter": "binomial",
    "alltoall": "pairwise",
}


def register_collective(kind: str, name: str, fn: CollectiveFn) -> None:
    """Register (or override) a collective implementation."""
    _REGISTRIES.setdefault(kind, {})[name] = fn


def register_allreduce(name: str, fn: CollectiveFn) -> None:
    """Shorthand for ``register_collective("allreduce", name, fn)``."""
    register_collective("allreduce", name, fn)


def _populate() -> None:
    """Fill the registries exactly once, safely from any thread.

    Concurrent first callers (e.g. the sweep service's worker threads)
    serialise on the lock and wait for the full table; a *reentrant*
    same-thread call during the population imports returns immediately
    via ``_POPULATED``, exactly as the lock-free version did.
    """
    global _POPULATED, _READY
    if _READY:
        return
    with _POPULATE_LOCK:
        if _POPULATED:
            return
        _POPULATED = True
        try:
            _register_builtin()
        except BaseException:
            _POPULATED = False
            raise
        _READY = True


def _register_builtin() -> None:
    from repro.core.dpml import allreduce_dpml, allreduce_hierarchical
    from repro.core.multilevel import allreduce_dpml_multilevel
    from repro.core.dpml_bcast import bcast_dpml
    from repro.core.dpml_reduce import reduce_dpml
    from repro.core.pipelined import allreduce_dpml_pipelined
    from repro.core.sharp_designs import (
        allreduce_sharp_node_leader,
        allreduce_sharp_socket_leader,
    )
    from repro.core.selection import (
        allreduce_adaptive,
        allreduce_dpml_tuned,
        allreduce_flat_auto,
        allreduce_intel_mpi,
        allreduce_mvapich2,
        bcast_auto,
        reduce_auto,
    )
    from repro.mpi.collectives.allgather import (
        allgather_bruck,
        allgather_recursive_doubling,
        allgather_ring,
    )
    from repro.mpi.collectives.binomial import (
        allreduce_reduce_bcast,
        bcast_binomial,
        reduce_binomial,
    )
    from repro.mpi.collectives.gather_scatter import gather_binomial, scatter_binomial
    from repro.mpi.collectives.knomial import bcast_knomial, reduce_knomial
    from repro.mpi.collectives.dualroot import allreduce_dualroot_pipelined
    from repro.mpi.collectives.generalized import allreduce_generalized
    from repro.mpi.collectives.optimal_rsag import allreduce_optimal_rsag
    from repro.mpi.collectives.rabenseifner import allreduce_rabenseifner
    from repro.mpi.collectives.recursive_doubling import allreduce_recursive_doubling
    from repro.mpi.collectives.reduce_scatter import (
        reduce_scatter_pairwise,
        reduce_scatter_recursive_halving,
    )
    from repro.mpi.collectives.ring import (
        allreduce_ring,
        allreduce_ring_segmented,
        bcast_scatter_ring,
    )

    for name, fn in {
        "recursive_doubling": allreduce_recursive_doubling,
        "rabenseifner": allreduce_rabenseifner,
        "ring": allreduce_ring,
        "ring_segmented": allreduce_ring_segmented,
        "dualroot_pipelined": allreduce_dualroot_pipelined,
        "optimal_rsag": allreduce_optimal_rsag,
        "generalized": allreduce_generalized,
        "reduce_bcast": allreduce_reduce_bcast,
        "hierarchical": allreduce_hierarchical,
        "dpml": allreduce_dpml,
        "dpml_pipelined": allreduce_dpml_pipelined,
        "dpml_multilevel": allreduce_dpml_multilevel,
        "dpml_tuned": allreduce_dpml_tuned,
        "sharp_node_leader": allreduce_sharp_node_leader,
        "sharp_socket_leader": allreduce_sharp_socket_leader,
        "flat_auto": allreduce_flat_auto,
        "mvapich2": allreduce_mvapich2,
        "intel_mpi": allreduce_intel_mpi,
        "adaptive": allreduce_adaptive,
    }.items():
        register_collective("allreduce", name, fn)

    for name, fn in {
        "binomial": reduce_binomial,
        "knomial": reduce_knomial,
        "dpml": reduce_dpml,
        "auto": reduce_auto,
    }.items():
        register_collective("reduce", name, fn)

    for name, fn in {
        "binomial": bcast_binomial,
        "knomial": bcast_knomial,
        "scatter_ring": bcast_scatter_ring,
        "dpml": bcast_dpml,
        "auto": bcast_auto,
    }.items():
        register_collective("bcast", name, fn)

    for name, fn in {
        "recursive_doubling": allgather_recursive_doubling,
        "ring": allgather_ring,
        "bruck": allgather_bruck,
    }.items():
        register_collective("allgather", name, fn)

    for name, fn in {
        "recursive_halving": reduce_scatter_recursive_halving,
        "pairwise": reduce_scatter_pairwise,
    }.items():
        register_collective("reduce_scatter", name, fn)

    register_collective("gather", "binomial", gather_binomial)
    register_collective("scatter", "binomial", scatter_binomial)

    from repro.mpi.collectives.alltoall import alltoall_bruck, alltoall_pairwise

    register_collective("alltoall", "pairwise", alltoall_pairwise)
    register_collective("alltoall", "bruck", alltoall_bruck)

    from repro.core.phases import phase_plans

    for name, plan in phase_plans().items():
        register_phase_plan(name, plan)


def register_phase_plan(name: str, plan) -> None:
    """Register (or override) the hybrid-fidelity phase plan of one
    allreduce algorithm.  Algorithms without a plan always run exact."""
    _PHASE_PLANS[name] = plan


def resolve_phase_plan(name: str):
    """The :class:`~repro.core.phases.PhasePlan` priced for ``name``,
    or ``None`` when the algorithm has no macro-charging support."""
    _populate()
    return _PHASE_PLANS.get(name)


def resolve_collective(kind: str, name: Optional[str], comm) -> CollectiveFn:
    """Look up an algorithm; ``None`` selects the kind's default.

    This is the single dispatch choke point for every collective call
    (the library selectors delegate back through here), which makes it
    the natural seam for hybrid fidelity: when the communicator's
    runtime runs with ``fidelity="hybrid"`` and the resolved allreduce
    has a registered phase plan, the exact coroutine implementation is
    wrapped by the macro executor, which charges the whole collective
    as one priced macro-event when eligible and falls back to the
    wrapped exact path otherwise.
    """
    _populate()
    registry = _REGISTRIES.get(kind)
    if registry is None:
        raise TuningError(
            f"unknown collective kind {kind!r}; available: "
            f"{', '.join(sorted(_REGISTRIES))}"
        )
    key = name or _DEFAULTS[kind]
    fn = registry.get(key)
    if fn is None:
        raise TuningError(
            f"unknown {kind} algorithm {key!r}; available: "
            f"{', '.join(sorted(registry))}"
        )
    if (
        kind == "allreduce"
        and comm is not None
        and getattr(comm.runtime, "fidelity", "exact") == "hybrid"
    ):
        plan = _PHASE_PLANS.get(key)
        if plan is not None:
            from repro.mpi.collectives.hybrid import make_hybrid_allreduce

            return make_hybrid_allreduce(key, fn, plan)
        # Hybrid mode asked for macro-charging but this algorithm has
        # no phase plan: run exact, but *count* the fallback so the
        # silent downgrade is visible in JobResult.counters.
        fallbacks = getattr(comm.runtime, "hybrid_plan_fallbacks", None)
        if fallbacks is not None:
            fallbacks[key] = fallbacks.get(key, 0) + 1
    return fn


def resolve_allreduce(name: Optional[str], comm) -> CollectiveFn:
    """Shorthand for ``resolve_collective("allreduce", name, comm)``."""
    return resolve_collective("allreduce", name, comm)


def available_collectives(kind: str = "allreduce") -> list[str]:
    """Sorted names of the registered algorithms of one kind."""
    _populate()
    if kind not in _REGISTRIES:
        raise TuningError(f"unknown collective kind {kind!r}")
    return sorted(_REGISTRIES[kind])


def available_algorithms() -> list[str]:
    """Sorted names of every registered allreduce algorithm."""
    return available_collectives("allreduce")
