"""Perf-regression harness: ``python -m repro.bench perf``.

Every scenario is one :class:`Scenario`: a name, the layouts it
measures, the limits it is gated on, and three functions — ``run``
(produce the scenario's report record), ``gate`` (list the record's
limit violations) and ``summary`` (its one-line stdout summary).  All
scenarios live in the one :data:`SCENARIOS` registry, and ``run_perf``,
``gate_failures`` and ``main`` treat them alike, so ``perf <name>
--gate`` judges exactly the scenario it ran.

The registered scenarios:

* **exact** (``fig4``/``fig5``/``fig10``): shrunken versions of the
  paper's evaluation sweeps (see ``repro.bench.spec``) — the DPML
  leaders grid on clusters A/B at a small node count, and the tuned
  selector on cluster D.  Each point runs once, with ``validate=True``
  so real numpy data flows through the copy-on-write paths, on a
  **fresh** :class:`SimSession` so the event pools start cold and the
  counters are reproducible run to run (pools survive ``reset()``, so a
  reused session would make ``events_allocated`` depend on history).
  A point records its simulated latency, the deterministic kernel
  counters (events allocated, heap pushes and pops, now-queue entries,
  pool reuses), the deterministic payload counters (bytes copied /
  viewed / reduced), and wall-clock time.  The gate is an absolute
  ceiling on the scenario's total ``events_allocated`` and
  ``bytes_copied``.
* **hybrid scale** (``scale10k``/``scale50k``/``scale100k``): the
  hybrid-fidelity path at datacenter rank counts on hypothetically
  scaled clusters (:func:`~repro.machine.clusters.scaled_cluster`),
  with symbolic payloads, reporting ranks simulated per second.  The
  gate is a wall-clock ceiling plus counter bounds: every collective
  must have been macro-charged (``macro_events`` floor) and the kernel
  must not have regressed to per-message eventing (``events_allocated``
  ceiling per rank).
* **result store** (``store_fig5``): a fig5-shaped sweep run twice
  through a throwaway content-addressed
  :class:`~repro.bench.store.ResultStore`; the warm pass must answer
  every point from the store — zero executions, 100% hit ratio,
  canonical payload byte-identical to the cold pass.
* **traffic** (``traffic_smoke``): a tiny Poisson tenant stream on a
  fresh and on a reused shared fabric; the two canonical results must
  be byte-identical, the scraper must have sampled, and each pass must
  finish under a wall-clock ceiling.

Counters are gated because they are stable on noisy CI machines; wall
ceilings are a backstop only.  That fast mode leaves simulated results
bit-identical to the seed's copy-always, heap-only paths is proved by
``tests/mpi/test_golden_determinism.py``, which replays the exact
scenarios' points against that reference.

``run_perf`` returns a plain dict; ``--output`` writes it as
``BENCH_PERF.json``.  ``--baseline <path>`` diffs the deterministic
portion (latencies, counters) against a committed baseline and fails
on any drift — wall-clock and throughput fields are stripped before
comparing.  ``--canonical-output <path>`` writes that same stripped
portion as canonical JSON (sorted keys, no whitespace), so two runs of
a deterministic scenario can be compared byte-for-byte with ``cmp``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.bench.harness import allreduce_latency
from repro.machine.clusters import get_cluster, scaled_cluster
from repro.mpi.runtime import SimSession
from repro.payload.payload import payload_counters, reset_payload_counters

__all__ = [
    "PerfPoint",
    "ScalePoint",
    "Scenario",
    "SCENARIOS",
    "SCALE_MIN_MACRO_PER_POINT",
    "SCALE_MAX_EVENTS_PER_RANK",
    "run_perf",
    "gate_failures",
    "baseline_mismatches",
    "strip_volatile",
    "canonical_json",
    "main",
]

#: ``BENCH_PERF.json`` format version; bump when the report's shape
#: changes, so a stale baseline fails loudly.
REPORT_SCHEMA = 2

#: ``progress`` callbacks receive one human-readable line per step.
Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class Scenario:
    """One named perf scenario: what it runs, how it gates, how it reads.

    ``run(progress)`` returns the scenario's report record,
    ``gate(record)`` its limit violations (empty when healthy), and
    ``summary(record)`` its stdout summary.  ``points`` lists the
    layouts the scenario measures (empty for scenarios that drive a
    whole subsystem) and ``limits`` the constants its gate enforces.
    """

    name: str
    run: Callable[[Progress], dict]
    gate: Callable[[dict], list[str]]
    summary: Callable[[dict], str]
    points: tuple = ()
    limits: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PerfPoint:
    """One exact-fidelity benchmark layout, run with real data."""

    cluster: str
    nodes: int
    ppn: int
    algorithm: str
    nbytes: int
    leaders: Optional[int] = None
    iterations: int = 2
    warmup: int = 1

    def label(self) -> str:
        lead = f"l{self.leaders}" if self.leaders is not None else "tuned"
        return (
            f"{self.cluster}/n{self.nodes}/ppn{self.ppn}/"
            f"{self.algorithm}/{self.nbytes}B/{lead}"
        )


@dataclass(frozen=True)
class ScalePoint:
    """One hybrid-fidelity layout at datacenter rank counts.

    Runs hybrid-only with a symbolic payload: the point of the scale
    tier is wall-clock and kernel-counter behaviour, and at 10k-100k
    ranks the float32 harness checksum overflows the mantissa anyway
    (numeric bit-identity between fidelities is enforced at tractable
    scale by the golden-determinism tests and the oracle spot-check).
    """

    cluster: str
    nodes: int
    ppn: int
    algorithm: str
    nbytes: int
    iterations: int = 1
    warmup: int = 1

    @property
    def nranks(self) -> int:
        return self.nodes * self.ppn

    def label(self) -> str:
        return (
            f"{self.cluster}-x{self.nodes}/ppn{self.ppn}/"
            f"{self.algorithm}/{self.nbytes}B/hybrid"
        )


_KERNEL_KEYS = (
    "events_allocated",
    "heap_pushes",
    "heap_pops",
    "nowq_entries",
    "pool_reuses",
)
_SCALE_KERNEL_KEYS = _KERNEL_KEYS + ("macro_events", "pool_evictions")
_PAYLOAD_KEYS = ("bytes_copied", "bytes_viewed", "bytes_reduced")


def _measure(config, point, *, kernel_keys, fidelity=None, **kwargs) -> dict:
    """One measurement on a fresh session (cold pools, zeroed counters)."""
    reset_payload_counters()
    try:
        session = SimSession(
            config, point.nodes * point.ppn, ppn=point.ppn, fidelity=fidelity
        )
        t0 = time.perf_counter()
        latency = allreduce_latency(
            config,
            point.algorithm,
            point.nbytes,
            ppn=point.ppn,
            iterations=point.iterations,
            warmup=point.warmup,
            session=session,
            fidelity=fidelity,
            **kwargs,
        )
        wall = time.perf_counter() - t0
        kernel = session.machine.sim.counters()
        payload = payload_counters()
    finally:
        reset_payload_counters()
    return {
        "latency": latency,
        "wall_seconds": wall,
        "kernel": {k: kernel[k] for k in kernel_keys},
        "payload": {k: payload[k] for k in _PAYLOAD_KEYS},
    }


def _run_exact(point: PerfPoint) -> dict:
    """One exact-fidelity, real-data measurement of ``point``."""
    kwargs = {} if point.leaders is None else {"leaders": point.leaders}
    return {
        "point": point.label(),
        **_measure(
            get_cluster(point.cluster, point.nodes),
            point,
            kernel_keys=_KERNEL_KEYS,
            validate=True,
            **kwargs,
        ),
    }


def _run_scale(point: ScalePoint) -> dict:
    """One hybrid-fidelity measurement on a fresh scaled-cluster session."""
    record = _measure(
        scaled_cluster(point.cluster, point.nodes),
        point,
        kernel_keys=_SCALE_KERNEL_KEYS,
        fidelity="hybrid",
    )
    wall = record["wall_seconds"]
    return {
        "point": point.label(),
        "nranks": point.nranks,
        **record,
        "ranks_per_second": round(point.nranks / wall) if wall > 0 else None,
    }


def _over_ceiling(name: str, what: str, value, ceiling, why: str = "") -> list:
    if value <= ceiling:
        return []
    return [f"{name}: {what} {value} over ceiling {ceiling}{why}"]


# -- exact scenarios ---------------------------------------------------------


def _exact_scenario(
    name: str,
    points: tuple[PerfPoint, ...],
    *,
    max_events: int,
    max_bytes_copied: int,
) -> Scenario:
    """Figure-shaped exact grid, gated on absolute counter totals."""
    limits = {"events_allocated": max_events, "bytes_copied": max_bytes_copied}

    def run(progress: Progress) -> dict:
        records = []
        totals = {k: 0 for k in _KERNEL_KEYS + _PAYLOAD_KEYS}
        for point in points:
            record = _run_exact(point)
            records.append(record)
            for block in (record["kernel"], record["payload"]):
                for k, v in block.items():
                    totals[k] += v
            if progress is not None:
                progress(
                    f"[{name}] {record['point']}: "
                    f"events {record['kernel']['events_allocated']}, "
                    f"copied {record['payload']['bytes_copied']}B, "
                    f"wall {record['wall_seconds']:.3f}s"
                )
        return {"points": records, "totals": totals}

    def gate(record: dict) -> list[str]:
        totals = record["totals"]
        return [
            failure
            for key, ceiling in limits.items()
            for failure in _over_ceiling(name, key, totals[key], ceiling)
        ]

    def summary(record: dict) -> str:
        totals = record["totals"]
        wall = sum(r["wall_seconds"] for r in record["points"])
        return (
            f"{name}: {len(record['points'])} points, "
            f"events_allocated {totals['events_allocated']} "
            f"(ceiling {max_events}), "
            f"bytes_copied {totals['bytes_copied']} "
            f"(ceiling {max_bytes_copied}), wall {wall:.2f}s"
        )

    return Scenario(name, run, gate, summary, points, limits)


def _dpml_grid(cluster: str, leaders: tuple[int, ...]) -> tuple[PerfPoint, ...]:
    return tuple(
        PerfPoint(cluster, nodes=4, ppn=8, algorithm="dpml", nbytes=nbytes,
                  leaders=lead)
        for nbytes in (4096, 65536)
        for lead in leaders
    )


# -- hybrid scale scenarios --------------------------------------------------

#: Every scale point issues warmup + timed allreduces plus one barrier;
#: each must land as a macro charge.
SCALE_MIN_MACRO_PER_POINT = 3
#: Kernel-event ceiling per rank: the hybrid path needs ~1 event per
#: rank per job (plus the macro gates); per-message eventing would be
#: hundreds.
SCALE_MAX_EVENTS_PER_RANK = 4.0


def _scale_scenario(name: str, point: ScalePoint, *, max_wall: float) -> Scenario:
    """One hybrid point at scale, gated on wall and kernel counters."""
    limits = {"wall_seconds": max_wall}

    def run(progress: Progress) -> dict:
        record = _run_scale(point)
        if progress is not None:
            progress(
                f"[{name}] {record['point']}: "
                f"macro {record['kernel']['macro_events']}, "
                f"events {record['kernel']['events_allocated']}, "
                f"wall {record['wall_seconds']:.3f}s "
                f"({record['ranks_per_second']} ranks/s)"
            )
        return {"points": [record]}

    def gate(record: dict) -> list[str]:
        failures: list[str] = []
        for r in record["points"]:
            label = f"{name} {r['point']}"
            failures += _over_ceiling(
                label, "wall", r["wall_seconds"], max_wall
            )
            macro = r["kernel"]["macro_events"]
            if macro < SCALE_MIN_MACRO_PER_POINT:
                failures.append(
                    f"{label}: macro_events {macro} below floor "
                    f"{SCALE_MIN_MACRO_PER_POINT} — collectives are not "
                    f"being macro-charged"
                )
            failures += _over_ceiling(
                label,
                "events_allocated",
                r["kernel"]["events_allocated"],
                SCALE_MAX_EVENTS_PER_RANK * r["nranks"],
                " — kernel regressed toward per-message eventing",
            )
        return failures

    def summary(record: dict) -> str:
        return "\n".join(
            f"{name}: {r['nranks']} ranks, latency {r['latency']:.3e}s, "
            f"wall {r['wall_seconds']:.2f}s, "
            f"{r['ranks_per_second']} ranks simulated/s"
            for r in record["points"]
        )

    return Scenario(name, run, gate, summary, (point,), limits)


# -- result-store scenario ---------------------------------------------------


def _store_scenario(name: str, make_spec: Callable) -> Scenario:
    """A sweep run cold then warm through a throwaway store; the warm
    pass is gated to execute zero points."""

    def run(progress: Progress) -> dict:
        import tempfile

        from repro.bench.executor import SerialExecutor
        from repro.bench.store import ResultStore

        spec = make_spec()
        executor = SerialExecutor()
        with tempfile.TemporaryDirectory(prefix="repro-perf-store-") as tmp:
            store = ResultStore(tmp)
            cold = executor.run(spec, store=store)
            warm = executor.run(spec, store=store)
        n = cold.meta["n_points"]

        def side(result) -> dict:
            counts = result.meta["store"]
            return {
                "wall_seconds": round(result.meta["wall_seconds"], 6),
                **{k: counts[k] for k in ("hits", "misses", "stored")},
            }

        record = {
            "spec_hash": spec.spec_hash(),
            "n_points": n,
            "cold": side(cold),
            "warm": side(warm),
            "warm_executed": warm.meta["store"]["misses"],
            "warm_hit_ratio": (
                round(warm.meta["store"]["hits"] / n, 4) if n else None
            ),
            "byte_identical": (
                cold.to_json(include_meta=False)
                == warm.to_json(include_meta=False)
            ),
        }
        if progress is not None:
            progress(summary(record))
        return record

    def gate(record: dict) -> list[str]:
        failures: list[str] = []
        if record["warm_executed"] != 0:
            failures.append(
                f"{name}: warm rerun executed {record['warm_executed']} "
                f"point(s) — the store must answer a fully-warm sweep"
            )
        if record["warm_hit_ratio"] != 1.0:
            failures.append(
                f"{name}: warm hit ratio {record['warm_hit_ratio']} != 1.0"
            )
        if record["byte_identical"] is not True:
            failures.append(
                f"{name}: warm canonical payload diverged from the cold run"
            )
        return failures

    def summary(record: dict) -> str:
        return (
            f"{name}: {record['n_points']} points, "
            f"cold {record['cold']['wall_seconds']:.2f}s -> "
            f"warm {record['warm']['wall_seconds']:.2f}s, "
            f"warm hit ratio {record['warm_hit_ratio']}, "
            f"byte-identical {record['byte_identical']}"
        )

    return Scenario(name, run, gate, summary)


def _store_spec():
    """The fig5-shaped sweep the ``store_fig5`` scenario runs twice."""
    from repro.bench.spec import SweepSpec

    return SweepSpec(
        name="perf-store-fig5",
        cluster="b",
        nodes=4,
        ppn=8,
        sizes=(4096, 65536),
        algorithms=("dpml",),
        leader_counts=(1, 2, 4, 8),
        iterations=2,
    )


# -- traffic scenario --------------------------------------------------------


def _traffic_scenario(
    name: str, make_trace: Callable, *, max_wall: float
) -> Scenario:
    """A trace on a fresh and on a reused (reset) fabric; the canonical
    results of the two passes must be byte-identical."""
    limits = {"wall_seconds": max_wall}

    def run(progress: Progress) -> dict:
        import dataclasses

        from repro.machine.fattree import FatTreeConfig
        from repro.traffic.fabric import SharedFabric
        from repro.traffic.runner import run_traffic

        trace = make_trace()
        nodes = max(1, 2 * trace.max_nodes())
        config = dataclasses.replace(
            get_cluster("a", nodes),
            topology=FatTreeConfig(nodes_per_leaf=2, spines=2),
        )
        t0 = time.perf_counter()
        fresh = run_traffic(
            trace, config=config, placement="spread", sanitize=True
        )
        wall_fresh = time.perf_counter() - t0
        fabric = SharedFabric(config, sanitize=True)
        run_traffic(trace, fabric=fabric, placement="spread")  # dirty it
        t0 = time.perf_counter()
        reused = run_traffic(trace, fabric=fabric, placement="spread")
        wall_reused = time.perf_counter() - t0
        record = {
            "trace_hash": trace.trace_hash(),
            "n_jobs": fresh.n_jobs,
            "nodes": fresh.nodes,
            "placement": fresh.placement,
            "elapsed": fresh.elapsed,
            "n_samples": len(fresh.series),
            "total_queue_wait": round(
                sum(job.queue_wait for job in fresh.jobs), 12
            ),
            "fresh": {"wall_seconds": round(wall_fresh, 6)},
            "reused": {"wall_seconds": round(wall_reused, 6)},
            "byte_identical": (
                fresh.to_canonical_json() == reused.to_canonical_json()
            ),
        }
        if progress is not None:
            progress(summary(record))
        return record

    def gate(record: dict) -> list[str]:
        failures: list[str] = []
        for passname in ("fresh", "reused"):
            failures += _over_ceiling(
                f"{name} {passname}",
                "wall",
                record[passname]["wall_seconds"],
                max_wall,
            )
        if record["byte_identical"] is not True:
            failures.append(
                f"{name}: reused-fabric replay diverged from the fresh run"
            )
        if record["n_samples"] < 1:
            failures.append(
                f"{name}: metering produced no samples — the scraper "
                f"never fired"
            )
        return failures

    def summary(record: dict) -> str:
        return (
            f"{name}: {record['n_jobs']} jobs / "
            f"{record['nodes']} nodes ({record['placement']}), "
            f"sim elapsed {record['elapsed']:.3e}s, "
            f"fresh {record['fresh']['wall_seconds']:.2f}s, "
            f"reused {record['reused']['wall_seconds']:.2f}s, "
            f"byte-identical {record['byte_identical']}"
        )

    return Scenario(name, run, gate, summary, limits=limits)


def _traffic_trace():
    """The tiny Poisson stream the ``traffic_smoke`` scenario replays."""
    from repro.traffic.workload import poisson_trace

    return poisson_trace(jobs=6, rate=3e4, seed=11)


# -- the registry ------------------------------------------------------------

#: Every perf scenario, in run order.  Exact ceilings sit at the fast
#: path's measured totals; scale wall ceilings carry ~10x headroom over
#: a dev box (~0.6s / ~6s / ~10s) so they catch an accidental fall-back
#: to per-message eventing (minutes), not CI noise.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        # Fig 4/5: DPML across the leaders grid (clusters A and B).
        _exact_scenario(
            "fig4", _dpml_grid("a", (1, 4)),
            max_events=5_464, max_bytes_copied=3_194_880,
        ),
        _exact_scenario(
            "fig5", _dpml_grid("b", (1, 2, 4, 8)),
            max_events=11_672, max_bytes_copied=6_045_696,
        ),
        # Fig 10: the tuned selector picks algorithm + leaders per size.
        _exact_scenario(
            "fig10",
            tuple(
                PerfPoint("d", nodes=4, ppn=8, algorithm="dpml_tuned",
                          nbytes=nbytes, iterations=1)
                for nbytes in (16384, 262144)
            ),
            max_events=5_318, max_bytes_copied=7_471_104,
        ),
        # Hybrid scale tier: 10k ranks gates CI; 50k/100k track the
        # trajectory past the exact kernel's ~450-rank comfort zone.
        _scale_scenario(
            "scale10k",
            ScalePoint("b", nodes=1250, ppn=8, algorithm="dpml", nbytes=4096),
            max_wall=30.0,
        ),
        _scale_scenario(
            "scale50k",
            ScalePoint("b", nodes=6250, ppn=8, algorithm="dpml", nbytes=65536),
            max_wall=120.0,
        ),
        _scale_scenario(
            "scale100k",
            ScalePoint("b", nodes=12500, ppn=8, algorithm="dpml_pipelined",
                       nbytes=65536),
            max_wall=240.0,
        ),
        _store_scenario("store_fig5", _store_spec),
        _traffic_scenario("traffic_smoke", _traffic_trace, max_wall=30.0),
    )
}


def run_perf(scenarios: Optional[list[str]] = None, progress: Progress = None) -> dict:
    """Run the named scenarios (all by default); returns the
    ``BENCH_PERF.json`` payload.  Unknown names raise :class:`KeyError`."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    selected = [SCENARIOS[name] for name in names]
    return {
        "schema": REPORT_SCHEMA,
        "suite": "repro.bench.perf",
        "scenarios": {s.name: s.run(progress) for s in selected},
    }


def gate_failures(report: dict) -> list[str]:
    """Limit violations of every scenario in ``report`` (empty when the
    gate passes).  A report with no scenarios is a configuration error."""
    if not report["scenarios"]:
        return ["report contains no scenarios"]
    failures: list[str] = []
    for name, record in report["scenarios"].items():
        scenario = SCENARIOS.get(name)
        if scenario is None:
            failures.append(f"{name}: unknown perf scenario")
        else:
            failures += scenario.gate(record)
    return failures


#: Host-timing fields: meaningful to humans, meaningless to diff.
_VOLATILE_KEYS = frozenset({"wall_seconds", "ranks_per_second"})


def strip_volatile(node):
    """Recursively drop wall-clock fields, keeping the deterministic rest."""
    if isinstance(node, dict):
        return {
            k: strip_volatile(v)
            for k, v in node.items()
            if k not in _VOLATILE_KEYS
        }
    if isinstance(node, list):
        return [strip_volatile(v) for v in node]
    return node


def canonical_json(report: dict) -> str:
    """The deterministic portion as byte-stable canonical JSON.

    Two runs of the same deterministic scenario must produce identical
    bytes — the CI hybrid-smoke job runs ``scale10k`` twice and ``cmp``s
    the two files.
    """
    return json.dumps(
        strip_volatile(report), sort_keys=True, separators=(",", ":")
    ) + "\n"


def baseline_mismatches(report: dict, baseline: dict) -> list[str]:
    """Differences in the deterministic portion vs a committed baseline."""
    mismatches: list[str] = []

    def walk(path, new, old):
        if isinstance(new, dict) and isinstance(old, dict):
            for key in sorted(set(new) | set(old)):
                if key not in old:
                    mismatches.append(f"{path}.{key}: missing from baseline")
                elif key not in new:
                    mismatches.append(f"{path}.{key}: missing from report")
                else:
                    walk(f"{path}.{key}", new[key], old[key])
        elif isinstance(new, list) and isinstance(old, list):
            if len(new) != len(old):
                mismatches.append(
                    f"{path}: length {len(new)} != baseline {len(old)}"
                )
            else:
                for i, (a, b) in enumerate(zip(new, old)):
                    walk(f"{path}[{i}]", a, b)
        elif new != old:
            mismatches.append(f"{path}: {new!r} != baseline {old!r}")

    walk("$", strip_volatile(report), strip_volatile(baseline))
    return mismatches


def main(args) -> int:
    """The ``perf`` subcommand of ``python -m repro.bench``."""
    import sys

    scenarios = [args.target] if args.target else None
    if scenarios and scenarios[0] not in SCENARIOS:
        print(
            f"unknown perf scenario {scenarios[0]!r}; "
            f"available: {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2

    def progress(line: str) -> None:
        print(f"  {line}", file=sys.stderr)

    report = run_perf(scenarios, progress=progress if args.progress else None)
    for name, record in report["scenarios"].items():
        print(SCENARIOS[name].summary(record))

    status = 0
    if args.gate:
        failures = gate_failures(report)
        if failures:
            for failure in failures:
                print(f"GATE FAIL: {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"gate ok: {', '.join(report['scenarios'])}")
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        mismatches = baseline_mismatches(report, baseline)
        if mismatches:
            for mismatch in mismatches[:40]:
                print(f"BASELINE DRIFT: {mismatch}", file=sys.stderr)
            if len(mismatches) > 40:
                print(
                    f"... and {len(mismatches) - 40} more", file=sys.stderr
                )
            status = 1
        else:
            print(f"baseline ok: matches {args.baseline}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    if getattr(args, "canonical_output", None):
        with open(args.canonical_output, "w") as fh:
            fh.write(canonical_json(report))
        print(f"wrote canonical {args.canonical_output}")
    return status
