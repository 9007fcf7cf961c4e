"""Benchmark command for the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  ``NAME`` is one of ``exact_grid``,
``hybrid_scale``, ``service_mixed``, ``traffic_tenants``; ``all`` runs
each in its own fresh interpreter.  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, taken from a traced
pass that repeats the work of an untraced one.  The line before it is
the workload's simulated-output digest.  The exit code is non-zero when
any output check fails.  See ``perfbench/README.md``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: set-up samples per run: this process plus fresh child interpreters
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 120

#: metric names and units are defined once, in BENCHMARK.json
SPEC_FILE = ROOT / "BENCHMARK.json"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(workload, measured, setup_samples) -> dict:
    lat = measured.latencies
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    errors = workload.errors
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": statistics.median(measured.rates),
        "request_p50_ms": p50 * 1e3,
        "request_p90_ms": p90 * 1e3,
        "hybrid_err_max_pct": max(errors) * 100 if errors else 0.0,
        "hybrid_err_median_pct": statistics.median(errors) * 100 if errors else 0.0,
    }


def per_layer_metrics(prof, traced, untraced) -> dict:
    from repro.bench.executor import run_point
    from repro.bench.spec import SweepSpec
    from repro.bench.store import point_key
    from repro.core.model import CostModel
    from repro.mpi.collectives.registry import resolve_collective
    from repro.mpi.runtime import Runtime, SimSession
    from repro.traffic import SharedFabric

    layer = prof.layer_self_times()
    module = prof.module_self_times()
    c = traced.counts
    dispatched = c["heap_pops"] + c["nowq_entries"]
    issued = prof.calls(("repro/mpi/comm.py", "_alloc_coll_tags"))
    copied, viewed = c["payload.bytes_copied"], c["payload.bytes_viewed"]
    hits, misses = c["store.hits"], c["store.misses"]
    executed, deduped = c["service.executed"], c["service.deduped"]
    return {
        "sim.self_s": layer["sim"],
        "sim.events_dispatched": dispatched,
        "sim.events_allocated": c["events_allocated"],
        "sim.pool_reuse_ratio": _ratio(c["pool_reuses"], c["pool_reuses"] + c["events_allocated"]),
        "sim.ns_per_event": _ratio(layer["sim"] * 1e9, dispatched),
        "sim.macro_events": c["macro_events"],
        "runtime.session_build_s": prof.cumulative(SimSession.__init__),
        "runtime.launch_s": prof.cumulative(Runtime.launch),
        "runtime.self_s": layer["runtime"],
        "runtime.ranks_launched": c["ranks_launched"],
        "machine.self_s": layer["machine"],
        "machine.shm_copies": c["tracer.copy"] + c["traffic.mem_jobs"],
        "machine.combines": c["tracer.compute"] + c["traffic.engine_jobs"],
        "transport.self_s": layer["transport"],
        "transport.matching_self_s": module.get("repro.mpi.matching", 0.0),
        "transport.messages": c["tracer.net-send"] + c["traffic.nic_tx_jobs"],
        "shm.self_s": layer["shm"],
        "payload.self_s": layer["payload"],
        "payload.bytes_copied": copied,
        "payload.bytes_viewed": viewed,
        "payload.bytes_reduced": c["payload.bytes_reduced"],
        "payload.copy_ratio": _ratio(copied, copied + viewed),
        "collectives.self_s": layer["collectives"],
        "collectives.issued": issued,
        "collectives.resolve_calls": prof.calls(resolve_collective),
        "collectives.pricing_calls_per_collective": _ratio(prof.calls(CostModel.from_machine), issued),
        "collectives.macro_ratio": _ratio(c["macro_events"], issued),
        "collectives.hybrid_fallbacks": c["hybrid_fallbacks"],
        "core.self_s": layer["core"],
        "core.leaders_calls": prof.calls(("repro/core/leaders.py", None)),
        "core.leaders_self_s": module.get("repro.core.leaders", 0.0),
        "core.model_calls": prof.calls(("repro/core/model.py", None)),
        "bench.self_s": layer["bench"],
        "spec.key_s": prof.cumulative(point_key) + prof.cumulative(SweepSpec.full_hash),
        "store.read_s": c["store.read_s"],
        "store.write_s": c["store.write_s"],
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": _ratio(hits, hits + misses),
        "service.queue_wait_s": c["service.queue_wait_s"],
        "service.executed": executed,
        "service.dedup_ratio": _ratio(deduped, executed + deduped),
        "executor.run_point_s": prof.cumulative(run_point),
        "executor.session_builds": prof.calls(("repro/bench/executor.py", "_session_for")),
        "traffic.self_s": layer["traffic"],
        "traffic.scheduler_self_s": module.get("repro.traffic.scheduler", 0.0),
        "traffic.metering_self_s": module.get("repro.traffic.metering", 0.0),
        "traffic.fabric_self_s": module.get("repro.traffic.fabric", 0.0),
        "traffic.fabric_reset_s": prof.cumulative(SharedFabric.reset),
        "traffic.samples": c["traffic.samples"],
        "traffic.queue_wait_sim_s": c["traffic.queue_wait_sim_s"],
        "other.self_s": traced.wall - sum(layer.values()),
        "trace.wall_s": traced.wall,
        "trace.overhead_ratio": traced.wall / untraced.wall,
    }


def _child(args, extra) -> list:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def child_setup_samples(args, n) -> list:
    """Set-up time of ``n`` fresh interpreters, one after another."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            _child(args, ["--setup-only"]), cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        args.workload = name
        print(f"== {name}", flush=True)
        proc = subprocess.run(_child(args, []), cwd=ROOT, timeout=CHILD_TIMEOUT + 180)
        status = status or proc.returncode
    return status


def format_result(correct, attempted, failed, metrics, declared) -> str:
    """The result line; ``declared`` lists the metrics BENCHMARK.json names."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC_FILE.read_text())
    sys.path.insert(0, str(SRC))
    from speed import rescaled_setup
    from tracing import LayerProfiler, Spans
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    spans = Spans(enabled=False)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, spans, tmp)
    try:
        workload.setup()
        setup_s = rescaled_setup(time.perf_counter() - _T_START)
        if args.setup_only:
            print(f"setup_s {setup_s!r}")
            return 0
        if args.trace:
            measured = workload.run(seconds=args.seconds / 2)
            spans.enabled = True
            prof = LayerProfiler()
            prof.start()
            try:
                traced = workload.run(requests=measured.attempted)
            finally:
                prof.stop()
            spans.enabled = False
            passes = (measured, traced)
        else:
            measured = workload.run(seconds=args.seconds)
            passes = (measured,)
        attempted, failed = workload.verify()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    correct = failed == 0 and measured.latencies != []

    print(f"digest {workload.name} {workload.digest()}")
    print(f"samples requests={len(measured.latencies)} ops={measured.ops} "
          f"({workload.op_unit}) rate_samples={len(measured.rates)} "
          f"wall_s={measured.wall:.3f} "
          f"probe_ms={1e3 * statistics.median(measured.speed):.2f}")
    if not measured.latencies:
        print("perfbench: no request completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(prof, traced, measured)
        declared = declared["per_layer"]
        spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        samples = [setup_s] + child_setup_samples(args, SETUP_SAMPLES - 1)
        metrics = end_to_end_metrics(workload, measured, samples)
        declared = declared["end_to_end"]
    print(format_result(correct, attempted, failed, metrics, declared))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
