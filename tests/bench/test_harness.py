"""Tests for the measurement harness and reporting."""

import pytest

from repro.bench.harness import allreduce_latency
from repro.bench.report import format_size, format_table, format_us, speedup
from repro.errors import ReproError
from repro.machine.clusters import cluster_b


class TestHarness:
    def test_latency_positive_and_deterministic(self):
        a = allreduce_latency(cluster_b(2), "recursive_doubling", 1024, ppn=2)
        b = allreduce_latency(cluster_b(2), "recursive_doubling", 1024, ppn=2)
        assert a > 0
        assert a == b  # the simulation is a pure function of its inputs

    def test_latency_monotone_in_size(self):
        config = cluster_b(2)
        ts = [
            allreduce_latency(config, "recursive_doubling", n, ppn=4)
            for n in (1024, 65536, 1 << 20)
        ]
        assert ts == sorted(ts)

    def test_validate_mode_checks_results(self):
        # Should not raise: the algorithms are correct.
        allreduce_latency(
            cluster_b(2), "dpml", 4096, ppn=4, validate=True, leaders=2
        )

    def test_missing_ranks_and_ppn_rejected(self):
        with pytest.raises(ReproError):
            allreduce_latency(cluster_b(2), "ring", 64)

    def test_explicit_nranks(self):
        t = allreduce_latency(cluster_b(4), "ring", 1024, nranks=6, ppn=2)
        assert t > 0


class TestReport:
    def test_format_size(self):
        assert format_size(4) == "4B"
        assert format_size(1024) == "1KB"
        assert format_size(16384) == "16KB"
        assert format_size(1 << 20) == "1MB"
        assert format_size(1536) == "1.5KB"

    def test_format_us_ranges(self):
        assert format_us(2.5e-6) == "2.50"
        assert format_us(1.234e-4) == "123.4"
        assert format_us(2.5e-3) == "2,500"

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        with pytest.raises(ZeroDivisionError):
            speedup(1.0, 0.0)

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 100, "b": "z"}]
        out = format_table(rows, ["a", "b"], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        out = format_table([], ["a"])
        assert "a" in out


class TestCli:
    def test_list_command(self, capsys):
        from repro.bench.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9b" in out and "fig11a" in out

    def test_unknown_command(self, capsys):
        from repro.bench.cli import main

        assert main(["nope"]) == 2

    def test_single_figure_runs(self, capsys):
        from repro.bench.cli import main

        assert main(["fig1c"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(c)" in out
