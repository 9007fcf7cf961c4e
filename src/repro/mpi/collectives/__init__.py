"""Baseline collective algorithms.

Every allreduce algorithm has the signature::

    def allreduce_x(comm, payload, op, tag_base=0, **options) -> Generator

returning (via the generator's return value) the fully reduced payload
on every rank.  Algorithms are registered by name in
:mod:`repro.mpi.collectives.registry` and dispatched through
``comm.allreduce(payload, op, algorithm="name")``.

Baselines implemented (the paper's Section 2.1 / Section 3 survey):

* ``recursive_doubling`` — the classic flat latency-optimal algorithm;
* ``rabenseifner`` — reduce-scatter (recursive halving) + allgather
  (recursive doubling), bandwidth-optimal for large messages;
* ``ring`` — 2(p-1)-step ring, the large-message workhorse;
* ``reduce_bcast`` — binomial-tree reduce followed by binomial bcast;
* ``hierarchical`` — the MVAPICH2-style single-leader shared-memory
  scheme (DPML with ``l = 1``).

The ``mvapich2`` / ``intel_mpi`` entries emulating the tuned production
libraries the paper compares against are selection tables in
:mod:`repro.core.selection`.
"""

from repro.mpi.collectives.registry import (
    available_algorithms,
    register_allreduce,
    resolve_allreduce,
)

__all__ = [
    "available_algorithms",
    "register_allreduce",
    "resolve_allreduce",
]
