"""Tests for the tuning tables, the table lookup and the hybrid selector."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.selection import FALLBACK_TABLE, TUNING_TABLES, Row, select
from repro.machine.clusters import (
    cluster_a,
    cluster_b,
    preset_name,
    scaled_cluster,
)
from repro.machine.machine import Machine
from repro.mpi import run_job
from repro.mpi.runtime import Runtime
from repro.payload import SUM, SymbolicPayload, make_payload


def _select_on(config, nranks, ppn, table, nbytes):
    """Run ``select`` on every rank of a job; return rank 0's row."""

    def fn(comm):
        yield comm.sim.timeout(0)
        return select(table, comm, nbytes)

    return run_job(config, nranks, fn, ppn=ppn).values[0]


def _tuned_row(config, nbytes, nranks=8, ppn=4):
    table = TUNING_TABLES.get(preset_name(config.name), FALLBACK_TABLE)
    return _select_on(config, nranks, ppn, table, nbytes)


class TestLookup:
    def test_tables_exist_for_all_clusters(self):
        for name in ("cluster-a", "cluster-b", "cluster-c", "cluster-d"):
            assert name in TUNING_TABLES
            assert TUNING_TABLES[name][-1].max_bytes == float("inf")

    def test_thresholds_are_sorted(self):
        for rows in TUNING_TABLES.values():
            bounds = [row.max_bytes for row in rows]
            assert bounds == sorted(bounds)

    def test_small_messages_use_few_leaders(self):
        row = _tuned_row(cluster_b(2), 16)
        assert row.kwargs["leaders"] <= 2

    def test_large_messages_use_many_leaders(self):
        row = _tuned_row(cluster_b(2), 1 << 20)
        assert row.kwargs["leaders"] == 16

    def test_sharp_selected_only_when_available(self):
        with_sharp = _tuned_row(cluster_a(2), 64)
        assert with_sharp.algorithm.startswith("sharp")
        without = _tuned_row(replace(cluster_a(2), sharp=None), 64)
        assert not without.algorithm.startswith("sharp")

    def test_unknown_cluster_uses_fallback(self):
        row = _tuned_row(replace(cluster_b(2), name="cluster-x"), 1 << 20)
        assert row == FALLBACK_TABLE[-1]

    def test_leader_counts_monotone_in_size(self):
        for name, rows in TUNING_TABLES.items():
            dpml_rows = [r for r in rows if r.algorithm.startswith("dpml")]
            counts = [r.kwargs["leaders"] for r in dpml_rows]
            assert counts == sorted(counts), name


class TestSelect:
    """The one lookup every table goes through."""

    def test_first_row_whose_limits_hold(self):
        table = (
            Row("a", max_bytes=64),
            Row("b", max_ranks=4),
            Row("c", max_bytes=1024),
            Row("d"),
        )
        assert _select_on(cluster_b(2), 8, 4, table, 64).algorithm == "a"
        assert _select_on(cluster_b(2), 8, 4, table, 65).algorithm == "c"
        assert _select_on(cluster_b(2), 4, 2, table, 65).algorithm == "b"
        assert _select_on(cluster_b(2), 8, 4, table, 1025).algorithm == "d"

    def test_single_node_rows_need_one_node(self):
        table = (Row("shm", single_node=True), Row("net"))
        assert _select_on(cluster_b(1), 4, 4, table, 8).algorithm == "shm"
        assert _select_on(cluster_b(2), 4, 2, table, 8).algorithm == "net"

    def test_last_row_when_nothing_holds(self):
        table = (Row("a", max_bytes=8), Row("b", max_bytes=16))
        assert _select_on(cluster_b(2), 8, 4, table, 1 << 20).algorithm == "b"

    def test_sharp_rows_skipped_without_switch_support(self):
        table = (Row("sharp_node_leader", max_bytes=256), Row("dpml"))
        assert _select_on(cluster_a(2), 8, 4, table, 8).algorithm == (
            "sharp_node_leader"
        )
        assert _select_on(cluster_b(2), 8, 4, table, 8).algorithm == "dpml"


class TestTunedSelectorEndToEnd:
    def test_explicit_table_override(self):
        table = [Row("dpml", {"leaders": 2})]

        def fn(comm):
            data = make_payload(16, data=np.full(16, float(comm.rank)))
            result = yield from comm.allreduce(
                data, SUM, algorithm="dpml_tuned", table=table
            )
            return result.array[0]

        res = run_job(cluster_b(2), 8, fn, ppn=4)
        assert all(v == sum(range(8)) for v in res.values)

    def test_explicit_table_skips_sharp_rows_like_builtin_tables(self):
        """A caller's table follows the built-in SHArP rule: on a
        machine without SHArP its SHArP rows are skipped, not run."""
        table = [Row("sharp_node_leader", max_bytes=256), Row("dpml")]

        def fn(comm):
            data = make_payload(4, data=np.full(4, 1.0))
            result = yield from comm.allreduce(
                data, SUM, algorithm="dpml_tuned", table=table
            )
            return result.array[0]

        res = run_job(cluster_b(2), 8, fn, ppn=4)
        assert all(v == 8.0 for v in res.values)

    def test_tuned_on_sharp_cluster_small_message(self):
        def fn(comm):
            data = make_payload(4, data=np.full(4, 1.0))
            result = yield from comm.allreduce(data, SUM, algorithm="dpml_tuned")
            return result.array[0]

        res = run_job(cluster_a(2), 8, fn, ppn=4)
        assert all(v == 8.0 for v in res.values)

    def test_scaled_cluster_uses_its_presets_table(self):
        """``scaled_cluster("b", 16)`` renames the config
        ``cluster-b-x16``; it is the same machine as ``cluster_b(16)``,
        so it must pick the same rows and run as fast."""

        def latency(config):
            def fn(comm):
                yield from comm.barrier()
                t0 = comm.now
                yield from comm.allreduce(
                    SymbolicPayload(16384, 1), SUM, algorithm="dpml_tuned"
                )
                return comm.now - t0

            machine = Machine(config, 16 * 28, 28)
            return max(Runtime(machine).launch(fn).values)

        scaled = scaled_cluster("b", 16)
        assert scaled.name == "cluster-b-x16"
        assert latency(scaled) == latency(cluster_b(16))
