"""Pin every table-driven selection decision.

A spy on :func:`repro.mpi.collectives.registry.resolve_collective`
wraps each resolved collective so that, when it runs on world rank 0,
it records ``(kind, name, kwargs)``.  The recorded sequence of one
collective call — the entry itself plus every algorithm it delegates
to, down to the flat inter-node exchange — is compared against the
golden sequences in ``data/selection_decisions.json``.

Cases cover each library selector (``flat_auto``, ``intel_mpi``,
``mvapich2``, reduce ``auto``, bcast ``auto``) at every one of its
byte thresholds and one byte past it, on 2, 8, 9, 64 and 65 ranks,
single-node and multi-node; and ``dpml_tuned`` at every row boundary
of every cluster table, one byte either side, plus the table a machine
of unknown name falls back to and Cluster A's table on a machine
without SHArP (whose SHArP rows must be skipped).  Payloads are
symbolic with one-byte elements, so byte sizes are exact and no data
moves.

Regenerate the golden file (only when a decision is *meant* to move)
with ``PYTHONPATH=src python tests/mpi/test_selection_decisions.py``.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import replace

import pytest

from repro.machine.clusters import cluster_a, cluster_b, cluster_c, cluster_d
from repro.mpi import run_job
from repro.mpi.collectives import registry
from repro.payload import SUM, SymbolicPayload

GOLDEN = pathlib.Path(__file__).parent / "data" / "selection_decisions.json"

#: Byte thresholds of each library entry: ``(kind, name) -> sizes``.
LIBRARY_THRESHOLDS = {
    ("allreduce", "flat_auto"): (8192, 524288),
    ("allreduce", "intel_mpi"): (4096, 65536),
    ("allreduce", "mvapich2"): (16384, 524288),
    ("reduce", "auto"): (4096, 16384),
    ("bcast", "auto"): (8192,),
}

#: Rank counts straddling the entries' system-size limits (2, 8, 64).
RANKS = (2, 8, 9, 64, 65)

#: Multi-node ``(nodes, ppn)`` layout for each rank count.
MULTI_NODE = {2: (2, 1), 8: (2, 4), 9: (3, 3), 64: (4, 16), 65: (5, 13)}

#: Row boundaries of each ``dpml_tuned`` table, with the machine that
#: selects it; ``fallback`` is a machine whose name no table knows.
TUNED_BOUNDARIES = {
    "cluster-a": (512, 2048, 8192, 131072),
    "cluster-a-nosharp": (512, 2048),
    "cluster-b": (64, 512, 2048, 8192, 131072),
    "cluster-c": (64, 512, 2048, 8192, 131072, 524288),
    "cluster-d": (64, 512, 2048, 131072, 524288),
    "fallback": (2048, 16384, 131072),
}

_TUNED_CLUSTERS = {
    "cluster-a": lambda: cluster_a(2),
    "cluster-a-nosharp": lambda: replace(cluster_a(2), sharp=None),
    "cluster-b": lambda: cluster_b(2),
    "cluster-c": lambda: cluster_c(2),
    "cluster-d": lambda: cluster_d(2),
    "fallback": lambda: replace(cluster_b(2), name="custom-machine"),
}


def _wide_node_cluster(nodes: int):
    """Cluster B with 80-core nodes, so 65 ranks fit on one node."""
    config = cluster_b(nodes)
    return replace(config, node=replace(config.node, cores_per_socket=40))


def _library_cases():
    for (kind, name), thresholds in LIBRARY_THRESHOLDS.items():
        for nbytes in sorted({t + d for t in thresholds for d in (0, 1)}):
            for p in RANKS:
                for placement in ("single", "multi"):
                    yield f"{kind}/{name}/{placement}/p{p}/{nbytes}B"


def _tuned_cases():
    for table, bounds in TUNED_BOUNDARIES.items():
        for nbytes in sorted({b + d for b in bounds for d in (-1, 0, 1)}):
            yield f"allreduce/dpml_tuned/{table}/{nbytes}B"


CASES = tuple(_library_cases()) + tuple(_tuned_cases())


def _layout(case: str):
    """``(config, nranks, ppn)`` of one case id."""
    parts = case.split("/")
    if parts[1] == "dpml_tuned":
        return _TUNED_CLUSTERS[parts[2]](), 8, 4
    placement, p = parts[2], int(parts[3][1:])
    if placement == "single":
        return _wide_node_cluster(1), p, p
    nodes, ppn = MULTI_NODE[p]
    return _wide_node_cluster(nodes), p, ppn


def record(case: str) -> list:
    """Run one case; return rank 0's ``[kind, name, kwargs]`` sequence."""
    kind, name = case.split("/")[:2]
    nbytes = int(case.rsplit("/", 1)[1][:-1])
    config, nranks, ppn = _layout(case)
    calls: list = []
    original = registry.resolve_collective

    def spy(spy_kind, spy_name, comm):
        fn = original(spy_kind, spy_name, comm)

        def recorded(comm, *args, **kwargs):
            if comm.world_rank == 0:
                kw = {k: v for k, v in kwargs.items() if k != "tag_base"}
                calls.append([spy_kind, spy_name, kw])
            return fn(comm, *args, **kwargs)

        return recorded

    def body(comm):
        payload = SymbolicPayload(nbytes, 1)
        if kind == "allreduce":
            yield from comm.allreduce(payload, SUM, algorithm=name)
        elif kind == "reduce":
            yield from comm.reduce(payload, SUM, root=0, algorithm=name)
        else:
            yield from comm.bcast(payload, root=0, algorithm=name)

    registry.resolve_collective = spy
    try:
        run_job(config, nranks, body, ppn=ppn)
    finally:
        registry.resolve_collective = original
    return calls


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_decisions_are_pinned(case):
    assert record(case) == _golden()[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    GOLDEN.parent.mkdir(exist_ok=True)
    out = {case: record(case) for case in CASES}
    lines = ",\n".join(
        f"  {json.dumps(case)}: {json.dumps(calls, sort_keys=True)}"
        for case, calls in out.items()
    )
    GOLDEN.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")
