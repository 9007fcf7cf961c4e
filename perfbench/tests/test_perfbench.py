"""Self-test of the benchmark command.

    python3 -m pytest perfbench/tests -q

A tiny run of every workload, untraced and traced, must print every
metric BENCHMARK.json names with its unit, and the traced run's layer
self times plus ``other.self_s`` must account for its traced wall.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("sim", "runtime", "machine", "transport", "shm", "payload",
          "collectives", "core", "bench", "traffic")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = (lines, json.loads(lines[-1]))
        return cache[workload, trace]

    return get


def _check_declared(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(results, workload):
    lines, result = results(workload, 0)
    _check_declared(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert lines[-3].startswith(f"digest {workload} ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(results, workload):
    lines, result = results(workload, 1)
    _check_declared(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    wall = metrics["trace.wall_s"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + metrics["other.self_s"] == pytest.approx(wall)
    # The profile, not the remainder, must carry most of the wall, and
    # the layers must not claim more time than passed.
    assert 0.5 * wall < layers < 1.05 * wall
    assert metrics["trace.overhead_ratio"] > 1


def test_digest_matches_between_traced_and_untraced_runs(results):
    untraced, _ = results("traffic_tenants", 0)
    traced, _ = results("traffic_tenants", 1)
    assert untraced[-3] == traced[-3]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
