"""Tests for the empirical autotuner."""

import pytest

from repro.bench import harness
from repro.core.selection import Row, autotune_cluster
from repro.machine.clusters import cluster_a, cluster_b


def _candidates(monkeypatch, config, **kw):
    """The rows autotune measures, in order, at one size."""
    seen = []

    def fake_latency(config, algorithm, nbytes, **kwargs):
        kwargs = {k: v for k, v in kwargs.items() if k not in ("ppn", "iterations")}
        seen.append(Row(algorithm, kwargs))
        return 1.0

    monkeypatch.setattr(harness, "allreduce_latency", fake_latency)
    autotune_cluster(config, sizes=(64,), **kw)
    return seen


class TestCandidates:
    def test_leader_counts_clamped_to_ppn(self, monkeypatch):
        rows = _candidates(
            monkeypatch, cluster_b(2), leader_counts=(1, 4, 16), ppn=8
        )
        assert all(r.kwargs["leaders"] <= 8 for r in rows)

    def test_sharp_candidates_only_with_switch_support(self, monkeypatch):
        with_sharp = _candidates(monkeypatch, cluster_a(2), ppn=8)
        without = _candidates(monkeypatch, cluster_b(2), ppn=8)
        assert any(r.algorithm.startswith("sharp") for r in with_sharp)
        assert not any(r.algorithm.startswith("sharp") for r in without)

    def test_pipelined_included_for_larger_leader_counts(self, monkeypatch):
        rows = _candidates(monkeypatch, cluster_b(2), leader_counts=(1, 4), ppn=8)
        assert rows == [
            Row("dpml", {"leaders": 1}),
            Row("dpml", {"leaders": 4}),
            Row("dpml_pipelined", {"leaders": 4}),
        ]


class TestAutotune:
    def test_table_shape_and_trend(self):
        table = autotune_cluster(
            cluster_b(4),
            ppn=8,
            sizes=(64, 8192, 262144),
            leader_counts=(1, 4, 8),
            iterations=1,
        )
        assert len(table) == 3
        assert table[-1].max_bytes == float("inf")
        bounds = [row.max_bytes for row in table[:-1]]
        assert bounds == sorted(bounds)
        # Small sizes prefer few leaders; large prefer many.
        assert table[0].kwargs["leaders"] <= table[-1].kwargs["leaders"]

    def test_every_row_has_a_spec(self):
        table = autotune_cluster(
            cluster_b(2), ppn=4, sizes=(64, 65536),
            leader_counts=(1, 4), iterations=1,
        )
        assert all(isinstance(row, Row) for row in table)
        assert [row.max_bytes for row in table] == [64.0, float("inf")]


def test_cli_prints_one_row_per_size(capsys):
    """``repro.bench autotune`` prints the tuned table, one row per
    size, with each row's keywords and ``inf`` on the last."""
    from repro.bench.cli import main
    from repro.core.selection import AUTOTUNE_SIZES

    assert main(["autotune", "--cluster", "b", "--nodes", "2", "--ppn", "4"]) == 0
    out = capsys.readouterr().out
    rows = out.split("tuning table:\n", 1)[1].splitlines()
    assert len(rows) == len(AUTOTUNE_SIZES)
    assert rows[-1].lstrip().startswith("<=       inf:")
    assert all("{'leaders': " in row for row in rows)
