"""Tests for the perf-regression harness (``repro.bench perf``)."""

import copy

import pytest

from repro.bench.perf import (
    SCENARIOS,
    PerfPoint,
    baseline_mismatches,
    gate_failures,
    run_perf,
    strip_volatile,
)

#: The exact-fidelity scenarios: those whose points are PerfPoints.
EXACT = [
    name
    for name, scenario in SCENARIOS.items()
    if scenario.points and isinstance(scenario.points[0], PerfPoint)
]


@pytest.fixture(scope="module")
def fig10_report():
    """One real (small) suite run, shared across the module's tests."""
    return run_perf(["fig10"])


class TestRunPerf:
    def test_scenarios_cover_the_papers_shapes(self):
        assert set(EXACT) == {"fig4", "fig5", "fig10"}

    def test_report_structure_and_totals(self, fig10_report):
        scenario = fig10_report["scenarios"]["fig10"]
        assert len(scenario["points"]) == len(SCENARIOS["fig10"].points)
        totals = dict.fromkeys(scenario["totals"], 0)
        for record in scenario["points"]:
            assert record["latency"] > 0
            assert record["wall_seconds"] >= 0
            assert set(record["kernel"]) == {
                "events_allocated",
                "heap_pushes",
                "heap_pops",
                "nowq_entries",
                "pool_reuses",
            }
            assert set(record["payload"]) == {
                "bytes_copied",
                "bytes_viewed",
                "bytes_reduced",
            }
            # the fast paths are taken
            assert record["kernel"]["nowq_entries"] > 0
            assert record["payload"]["bytes_viewed"] > 0
            for block in (record["kernel"], record["payload"]):
                for key, value in block.items():
                    totals[key] += value
        assert totals == scenario["totals"]

    def test_counters_are_deterministic_across_runs(self, fig10_report):
        again = run_perf(["fig10"])
        assert strip_volatile(again) == strip_volatile(fig10_report)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_perf(["fig99"])

    def test_single_scenario_gates_alone(self):
        """``perf fig4 --gate`` judges fig4 by itself."""
        assert gate_failures(run_perf(["fig4"])) == []


class TestGate:
    """Each exact scenario's totals are gated on absolute ceilings."""

    def _synthetic(self, name, events, copied):
        return {
            "scenarios": {
                name: {
                    "points": [],
                    "totals": {
                        "events_allocated": events,
                        "bytes_copied": copied,
                    },
                }
            }
        }

    def test_passing_report_has_no_failures(self):
        for name in EXACT:
            limits = SCENARIOS[name].limits
            report = self._synthetic(
                name, limits["events_allocated"], limits["bytes_copied"]
            )
            assert gate_failures(report) == [], name

    def test_over_ceiling_fails(self):
        for name in EXACT:
            limits = SCENARIOS[name].limits
            report = self._synthetic(
                name,
                limits["events_allocated"] + 1,
                limits["bytes_copied"] + 1,
            )
            failures = gate_failures(report)
            assert len(failures) == 2, name
            assert any("events_allocated" in f for f in failures)
            assert any("bytes_copied" in f for f in failures)

    def test_missing_scenario_fails(self):
        assert gate_failures({"scenarios": {}})


class TestTrafficGate:
    def _record(self, **overrides):
        base = {
            "trace_hash": "ab" * 32,
            "n_jobs": 6,
            "nodes": 4,
            "placement": "spread",
            "elapsed": 1.1e-3,
            "n_samples": 12,
            "total_queue_wait": 0.0,
            "fresh": {"wall_seconds": 0.1},
            "reused": {"wall_seconds": 0.1},
            "byte_identical": True,
        }
        base.update(overrides)
        return {"scenarios": {"traffic_smoke": base}}

    def test_healthy_traffic_record_passes(self):
        assert gate_failures(self._record()) == []

    def test_replay_divergence_fails(self):
        failures = gate_failures(self._record(byte_identical=False))
        assert any("diverged" in f for f in failures)

    def test_wall_over_ceiling_fails(self):
        ceiling = SCENARIOS["traffic_smoke"].limits["wall_seconds"]
        failures = gate_failures(
            self._record(reused={"wall_seconds": ceiling + 1})
        )
        assert any("over" in f and "ceiling" in f for f in failures)

    def test_empty_series_fails(self):
        failures = gate_failures(self._record(n_samples=0))
        assert any("scraper" in f for f in failures)

    def test_real_traffic_smoke_run_is_deterministic(self):
        report = run_perf(["traffic_smoke"])
        assert gate_failures(report) == []
        again = run_perf(["traffic_smoke"])
        assert strip_volatile(again) == strip_volatile(report)


class TestBaseline:
    def test_identical_reports_match(self, fig10_report):
        assert baseline_mismatches(fig10_report, fig10_report) == []

    def test_wall_clock_drift_is_ignored(self, fig10_report):
        noisy = copy.deepcopy(fig10_report)
        record = noisy["scenarios"]["fig10"]["points"][0]
        record["wall_seconds"] *= 100
        assert baseline_mismatches(fig10_report, noisy) == []

    def test_counter_drift_is_reported(self, fig10_report):
        drifted = copy.deepcopy(fig10_report)
        record = drifted["scenarios"]["fig10"]["points"][0]
        record["kernel"]["events_allocated"] += 1
        mismatches = baseline_mismatches(fig10_report, drifted)
        assert mismatches
        assert "events_allocated" in mismatches[0]

    def test_missing_key_is_reported(self, fig10_report):
        truncated = copy.deepcopy(fig10_report)
        del truncated["scenarios"]["fig10"]["totals"]
        mismatches = baseline_mismatches(fig10_report, truncated)
        assert any("missing from baseline" in m for m in mismatches)
