"""Tests for the library-style selectors: results and orderings.

Their exact decisions at every threshold are pinned by
``test_selection_decisions``."""

import numpy as np
import pytest

from repro.core.selection import is_multinode
from repro.machine.clusters import cluster_b, cluster_c, cluster_d
from repro.mpi import run_job
from repro.payload import SUM, SymbolicPayload, make_payload


class TestIsMultinode:
    def test_single_node_job(self):
        def fn(comm):
            yield comm.sim.timeout(0)
            return is_multinode(comm)

        res = run_job(cluster_b(1), 4, fn, ppn=4)
        assert res.values == [False] * 4

    def test_multi_node_job(self):
        def fn(comm):
            yield comm.sim.timeout(0)
            return is_multinode(comm)

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert res.values == [True] * 4

    def test_split_subcomm_recomputed(self):
        def fn(comm):
            node_comm = yield from comm.split(
                color=comm.machine.node_of(comm.world_rank)
            )
            return (is_multinode(comm), is_multinode(node_comm))

        res = run_job(cluster_b(2), 4, fn, ppn=2)
        assert all(v == (True, False) for v in res.values)


class TestSelectorsProduceCorrectResults:
    """Every threshold region of each selector must stay correct."""

    SIZES = [64, 8192, 65536, 262144, 1 << 20]

    @pytest.mark.parametrize("selector", ["mvapich2", "intel_mpi", "flat_auto"])
    @pytest.mark.parametrize("nbytes", SIZES)
    def test_all_threshold_regions(self, selector, nbytes):
        count = max(1, nbytes // 8)

        def fn(comm):
            data = make_payload(count, data=np.full(count, float(comm.rank)))
            out = yield from comm.allreduce(data, SUM, algorithm=selector)
            return float(out.array[0])

        res = run_job(cluster_b(2), 8, fn, ppn=4)
        assert all(v == sum(range(8)) for v in res.values)

    def test_single_node_mvapich2_uses_shm(self):
        from repro.machine.machine import Machine
        from repro.mpi.runtime import Runtime

        machine = Machine(cluster_b(1), 8, 8, trace=True)

        def fn(comm):
            yield from comm.allreduce(
                SymbolicPayload(1 << 18, 4), SUM, algorithm="mvapich2"
            )

        Runtime(machine).launch(fn)
        assert machine.nic_tx[0].job_count == 0


class TestSelectionPatterns:
    def test_intel_flat_beats_mvapich2_on_knl_medium(self):
        """The paper's Cluster D ordering: Intel's flat selection ages
        better on slow cores than MVAPICH2's single-leader scheme."""
        from repro.bench.harness import allreduce_latency

        mv = allreduce_latency(cluster_d(8), "mvapich2", 65536, ppn=32)
        im = allreduce_latency(cluster_d(8), "intel_mpi", 65536, ppn=32)
        assert im < mv

    def test_mvapich2_beats_intel_on_xeon_small(self):
        """...while the shm-based scheme wins on fast Xeon cores for
        small messages (the paper's Cluster C ordering)."""
        from repro.bench.harness import allreduce_latency

        mv = allreduce_latency(cluster_c(8), "mvapich2", 256, ppn=28)
        im = allreduce_latency(cluster_c(8), "intel_mpi", 256, ppn=28)
        assert mv < im
