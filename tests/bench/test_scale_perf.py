"""The hybrid-fidelity scale tier of the perf harness.

The scale scenarios are the tentpole's gate: a 10k-rank DPML allreduce
must complete in hybrid mode under a wall-clock ceiling, with every
collective macro-charged and kernel events bounded per rank.  These
tests exercise the runner on a small scaled layout, the real
``scale10k`` scenario end to end, and the gate arithmetic on synthetic
reports.
"""

import copy

import pytest

from repro.bench.perf import (
    SCALE_MAX_EVENTS_PER_RANK,
    SCALE_MIN_MACRO_PER_POINT,
    SCENARIOS,
    ScalePoint,
    _run_scale,
    canonical_json,
    gate_failures,
    run_perf,
    strip_volatile,
)


#: The hybrid scale tier: the registry's scenarios measuring ScalePoints.
SCALE = {
    name: scenario
    for name, scenario in SCENARIOS.items()
    if scenario.points and isinstance(scenario.points[0], ScalePoint)
}


class TestScaleScenarios:
    def test_tier_covers_10k_to_100k_ranks(self):
        ranks = {
            name: sum(p.nranks for p in scenario.points)
            for name, scenario in SCALE.items()
        }
        assert ranks == {
            "scale10k": 10_000, "scale50k": 50_000, "scale100k": 100_000
        }
        assert all("wall_seconds" in s.limits for s in SCALE.values())

    def test_small_scale_point_runs_hybrid(self):
        record = _run_scale(
            ScalePoint("b", nodes=8, ppn=4, algorithm="dpml", nbytes=4096)
        )
        assert record["nranks"] == 32
        assert record["latency"] > 0.0
        assert record["kernel"]["macro_events"] >= SCALE_MIN_MACRO_PER_POINT
        assert (
            record["kernel"]["events_allocated"]
            <= SCALE_MAX_EVENTS_PER_RANK * record["nranks"]
        )
        assert record["ranks_per_second"] > 0

    def test_scale10k_scenario_end_to_end(self):
        """The acceptance scenario itself: 10k ranks, macro-charged,
        deterministic counters across two runs."""
        first = run_perf(["scale10k"])
        second = run_perf(["scale10k"])
        assert strip_volatile(first) == strip_volatile(second)
        (record,) = first["scenarios"]["scale10k"]["points"]
        assert record["nranks"] == 10_000
        assert record["kernel"]["macro_events"] >= SCALE_MIN_MACRO_PER_POINT
        assert gate_failures(first) == []

    def test_canonical_json_is_byte_stable(self):
        report = run_perf(["scale10k"])
        text = canonical_json(report)
        assert text == canonical_json(copy.deepcopy(report))
        assert text.endswith("\n")
        assert "wall_seconds" not in text
        assert "ranks_per_second" not in text


class TestScaleGate:
    def _record(self, **overrides):
        base = {
            "point": "b-x1250/ppn8/dpml/4096B/hybrid",
            "nranks": 10_000,
            "latency": 3.2e-05,
            "wall_seconds": 1.0,
            "ranks_per_second": 10_000,
            "kernel": {
                "events_allocated": 10_002,
                "heap_pushes": 3,
                "heap_pops": 3,
                "nowq_entries": 30_000,
                "pool_reuses": 0,
                "macro_events": 3,
                "pool_evictions": 0,
            },
            "payload": {"bytes_copied": 0, "bytes_viewed": 0, "bytes_reduced": 0},
        }
        for key, value in overrides.items():
            if key in base["kernel"]:
                base["kernel"][key] = value
            else:
                base[key] = value
        return base

    def _report(self, record):
        return {"scenarios": {"scale10k": {"points": [record]}}}

    def test_healthy_record_passes(self):
        assert gate_failures(self._report(self._record())) == []

    def test_wall_over_ceiling_fails(self):
        report = self._report(
            self._record(
                wall_seconds=SCENARIOS["scale10k"].limits["wall_seconds"] + 1.0
            )
        )
        failures = gate_failures(report)
        assert any("over" in f and "ceiling" in f for f in failures)

    def test_missing_macro_charges_fail(self):
        failures = gate_failures(self._report(self._record(macro_events=0)))
        assert any("macro_events" in f for f in failures)

    def test_per_message_event_regression_fails(self):
        blown = self._record(
            events_allocated=int(SCALE_MAX_EVENTS_PER_RANK * 10_000) + 1
        )
        failures = gate_failures(self._report(blown))
        assert any("events_allocated" in f for f in failures)
