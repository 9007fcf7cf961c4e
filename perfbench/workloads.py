"""The benchmark's four workloads, driven only through public entry points.

Each workload builds its inputs from the seed, runs *requests* for a
time budget (or for a fixed request count, in the traced run), and
checks every output outside the timed region.  A request is what a user
waits for: one exact point, one 20k-rank hybrid point, one sweep
request, or one replay of a tenant trace.  ``ops`` counts the unit the
workload's throughput is stated in: exact points, simulated ranks,
sweep requests, or tenant jobs.

Every workload also runs a fixed, seed-independent set of *accuracy
twins*: the same allreduce at exact and at hybrid fidelity, on the
algorithms and layouts the workload exercises, at a size where exact is
affordable.  Their relative difference gives the ``hybrid_err_*``
metrics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speed

#: Allreduce calls per point: one timed call, no warmup.
ITERATIONS = 1
WARMUP = 0
#: service requests between two speed probes (one throughput sample)
SERVICE_BLOCK = 100


@dataclass
class Pass:
    """What one measured pass did."""

    wall: float = 0.0  #: raw host seconds of the whole pass, probes included
    ops: int = 0  #: throughput units completed
    #: per request, host seconds at the reference speed (see speed.py)
    latencies: list = field(default_factory=list)
    #: throughput samples (ops per reference-speed second) over rounds,
    #: replays or request blocks
    rates: list = field(default_factory=list)
    speed: list = field(default_factory=list)  #: probe seconds
    attempted: int = 0
    failed: int = 0
    #: counts the per-layer metrics are built from
    counts: Counter = field(default_factory=Counter)


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_failure(what: str) -> None:
    print(f"check failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_allreduce(spans, config, nranks, ppn, algorithm, nbytes, *,
                  leaders=None, fidelity="exact", validate=True):
    """One allreduce point on a fresh session: ``(sim latency, counts)``.

    ``validate`` carries numpy payloads and raises
    :class:`repro.errors.ReproError` on a wrong result.
    """
    from repro.bench.harness import allreduce_latency
    from repro.mpi.runtime import SimSession
    from repro.payload.payload import payload_counters, reset_payload_counters

    kwargs = {"leaders": leaders} if leaders is not None else {}
    with spans.span("SimSession"):
        session = SimSession(config, nranks, ppn, trace=True, fidelity=fidelity)
    reset_payload_counters()
    with spans.span("allreduce_latency"):
        latency = allreduce_latency(
            config, algorithm, nbytes, nranks=nranks, ppn=ppn,
            iterations=ITERATIONS, warmup=WARMUP, validate=validate,
            session=session, fidelity=fidelity, **kwargs,
        )
    counts = dict(session.machine.sim.counters())
    for cat, n in session.machine.tracer.count_by_category.items():
        counts[f"tracer.{cat}"] = int(n)
    counts["hybrid_fallbacks"] = sum(session.runtime.hybrid_plan_fallbacks.values())
    counts["ranks_launched"] = nranks
    for key, value in payload_counters().items():
        counts[f"payload.{key}"] = value
    return latency, counts


def twin_errors(spans, twins) -> tuple[list, int]:
    """Relative |hybrid - exact| / exact per twin, and the failure count.

    ``twins`` holds ``(config, nranks, ppn, algorithm, nbytes, leaders,
    exact)`` rows; ``exact`` is the exact latency when that side already
    ran, else ``None``.
    """
    errors, failed = [], 0
    for config, nranks, ppn, algorithm, nbytes, leaders, exact in twins:
        try:
            if exact is None:
                exact, _ = run_allreduce(
                    spans, config, nranks, ppn, algorithm, nbytes, leaders=leaders
                )
            hybrid, _ = run_allreduce(
                spans, config, nranks, ppn, algorithm, nbytes, leaders=leaders,
                fidelity="hybrid",
            )
            errors.append(abs(hybrid - exact) / exact)
        except Exception:  # noqa: BLE001 - a failed twin is counted, not fatal
            report_failure(f"accuracy twin {algorithm} {nbytes}B")
            failed += 1
    return errors, failed


def warm_up(spans) -> None:
    """Lazy set-up shared by every workload: the collective registry and
    the modules a first exact and a first hybrid run import."""
    from repro.machine.clusters import cluster_b
    from repro.mpi.collectives.registry import available_algorithms

    available_algorithms()
    config = cluster_b(2)
    for fidelity in ("exact", "hybrid"):
        run_allreduce(spans, config, 4, 2, "dpml", 4096, fidelity=fidelity)


class Workload:
    """Base: subclasses add to ``setup`` and define ``run`` and ``verify``."""

    name = ""
    #: unit of ``ops`` (for the human-readable summary)
    op_unit = ""

    def __init__(self, seed: int, spans, tmp: Path):
        self.seed = seed
        self.spans = spans
        self.tmp = tmp
        self.errors: list = []  #: accuracy-twin relative errors
        self.digest_parts: dict = {}

    def setup(self) -> None:
        warm_up(self.spans)

    def verify(self) -> tuple[int, int]:
        """Checks outside the timed region: ``(attempted, failed)``."""
        raise NotImplementedError

    def digest(self) -> str:
        return digest_of(self.digest_parts)


class _Rounds(Workload):
    """Workloads made of a fixed round of points (the seed plays no part)."""

    def points(self) -> list:
        raise NotImplementedError

    def _run_point(self, point) -> tuple[float, dict]:
        raise NotImplementedError

    def _ops_of(self, point) -> int:
        return 1

    def run(self, seconds=None, requests=None) -> Pass:
        points = self.points()
        out = Pass()
        self.latency = getattr(self, "latency", {})
        speed = Speed()
        t0 = time.perf_counter()
        rounds = 0
        while True:
            round_time, round_ops = 0.0, 0
            for point in points:
                start = time.perf_counter()
                out.attempted += 1
                try:
                    with self.spans.op(f"{point}#{rounds}"):
                        latency, counts = self._run_point(point)
                except Exception:  # noqa: BLE001 - counted, the run goes on
                    report_failure(f"{self.name} point {point}")
                    out.failed += 1
                    speed.bracket(time.perf_counter() - start)
                    continue
                raw = time.perf_counter() - start
                host = raw * speed.bracket(raw)
                out.latencies.append(host)
                round_time += host
                out.ops += self._ops_of(point)
                round_ops += self._ops_of(point)
                out.counts.update(counts)
                first = self.latency.setdefault(point, (latency, counts))
                if first[0] != latency:
                    print(f"check failed: {point} replayed {latency!r}, "
                          f"first run gave {first[0]!r}", file=sys.stderr)
                    out.failed += 1
            rounds += 1
            if round_time:
                out.rates.append(round_ops / round_time)
            elapsed = time.perf_counter() - t0
            if requests is not None:
                if rounds * len(points) >= requests:
                    break
            elif elapsed + elapsed / rounds > seconds:
                break
        out.wall = time.perf_counter() - t0
        out.speed = speed.samples
        return out


class ExactGrid(_Rounds):
    """Exact-fidelity DPML and literature allreduces with numpy payloads
    on Cluster B, 8 nodes x 28 ppn, each point on a fresh session."""

    name = "exact_grid"
    op_unit = "exact points"
    NODES, PPN = 8, 28
    #: trimmed to a few seconds a round; keeps the l=16 and optimal_rsag
    #: points at 256 KiB, where hybrid's error is largest
    GRID = (
        ("dpml", 1, 4096),
        ("dpml", 4, 4096),
        ("dpml", 16, 4096),
        ("dpml_pipelined", None, 4096),
        ("recursive_doubling", None, 4096),
        ("rabenseifner", None, 4096),
        ("dpml", 16, 262144),
        ("dpml_pipelined", None, 262144),
        ("optimal_rsag", None, 262144),
    )

    def setup(self):
        super().setup()
        from repro.machine.clusters import cluster_b

        self.config = cluster_b(self.NODES)

    def points(self):
        return list(self.GRID)

    def _run_point(self, point):
        algorithm, leaders, nbytes = point
        return run_allreduce(
            self.spans, self.config, self.NODES * self.PPN, self.PPN,
            algorithm, nbytes, leaders=leaders,
        )

    def verify(self):
        twins = [
            (self.config, self.NODES * self.PPN, self.PPN, alg, nbytes, leaders,
             self.latency[(alg, leaders, nbytes)][0])
            for (alg, leaders, nbytes) in self.GRID
            if (alg, leaders, nbytes) in self.latency
        ]
        self.errors, failed = twin_errors(self.spans, twins)
        self.digest_parts = {
            "exact": {str(k): v for k, v in self.latency.items()},
            "hybrid_err": self.errors,
        }
        return len(twins), failed + len(self.GRID) - len(twins)


class HybridScale(_Rounds):
    """Hybrid fidelity, symbolic payloads, 20,000 ranks on a scaled
    Cluster B (2,500 nodes x 8 ppn), each point on a fresh session."""

    name = "hybrid_scale"
    op_unit = "simulated ranks"
    NODES, PPN = 2500, 8
    POINTS = (("dpml", 65536), ("dpml_pipelined", 65536))
    #: largest layouts where the exact twin stays cheap
    TWIN_NODES = (8, 32)

    def setup(self):
        super().setup()
        from repro.machine.clusters import scaled_cluster

        self.config = scaled_cluster("b", self.NODES)

    def points(self):
        return list(self.POINTS)

    def _ops_of(self, point):
        return self.NODES * self.PPN

    def _run_point(self, point):
        algorithm, nbytes = point
        latency, counts = run_allreduce(
            self.spans, self.config, self.NODES * self.PPN, self.PPN,
            algorithm, nbytes, fidelity="hybrid", validate=False,
        )
        if not latency > 0 or counts["macro_events"] < 1 or counts["hybrid_fallbacks"]:
            raise RuntimeError(f"{point} did not run macro-charged: {counts}")
        return latency, counts

    def verify(self):
        from repro.machine.clusters import scaled_cluster

        twins = [
            (scaled_cluster("b", nodes), nodes * self.PPN, self.PPN, alg, nbytes, None, None)
            for nodes in self.TWIN_NODES
            for alg, nbytes in self.POINTS
        ]
        self.errors, failed = twin_errors(self.spans, twins)
        self.digest_parts = {
            "hybrid": {str(k): v for k, v in self.latency.items()},
            "hybrid_err": self.errors,
        }
        return len(twins), failed + len(self.POINTS) - len(self.latency)


class ServiceMixed(Workload):
    """Two closed-loop clients on one ``SweepService(workers=2)`` over a
    ``ResultStore`` that starts empty: a steady share of new small
    sweeps that execute and write back, the rest Zipf-like repeats that
    read from the store, some colliding in flight."""

    name = "service_mixed"
    op_unit = "sweep requests"
    CLIENTS = 2
    WORKERS = 2
    STREAM = 50_000
    NEW_PER_10 = 3  #: new sweeps in every block of ten requests
    RECENT = 0.15  #: share of repeats asking for the newest sweep
    DIGEST_SPECS = 16
    FAMILIES = (
        ("dpml", (1, 2)),
        ("dpml", (4,)),
        ("recursive_doubling", (None,)),
        ("dpml_pipelined", (None,)),
        ("rabenseifner", (None,)),
    )
    TWIN_FAMILIES = (("dpml", 2), ("recursive_doubling", None), ("dpml_pipelined", None))

    def setup(self):
        super().setup()
        self.stream = self._stream()
        self._specs: dict = {}
        self.replies: list = []
        self._passes = 0
        self._build_service()

    def _build_service(self) -> None:
        """A fresh service over a fresh, empty store."""
        from repro.bench.service import SweepService
        from repro.bench.store import ResultStore

        self.store = ResultStore(self.tmp / f"store-{self._passes}")
        self.service = SweepService(store=self.store, workers=self.WORKERS)

    def _stream(self) -> list:
        """Spec indices in request order; index ``k`` is the k-th new sweep."""
        rng = random.Random(self.seed)
        out: list = []
        created = 0
        while len(out) < self.STREAM:
            block = [True] * self.NEW_PER_10 + [False] * (10 - self.NEW_PER_10)
            rng.shuffle(block)
            for new in block:
                if new or created < 2:
                    out.append(created)
                    created += 1
                elif rng.random() < self.RECENT:
                    out.append(created - 1)
                else:
                    # density ~ 1/k over creation order: early sweeps
                    # stay the most popular
                    out.append(int(created ** rng.random()) - 1)
        return out

    def spec(self, index: int):
        spec = self._specs.get(index)
        if spec is None:
            from repro.bench.spec import SweepSpec

            rng = random.Random(self.seed * 1_000_003 + index)
            algorithm, leaders = self.FAMILIES[(index // 4) % len(self.FAMILIES)]
            sizes = rng.sample(range(256, 32768, 4), rng.choice((1, 2)))
            spec = self._specs[index] = SweepSpec(
                name=f"svc-{self.seed}-{index}",
                cluster="abcd"[index % 4],
                nodes=2,
                ppn=4,
                sizes=tuple(sorted(sizes)),
                algorithms=(algorithm,),
                leader_counts=leaders,
                iterations=ITERATIONS,
                warmup=WARMUP,
                fidelity=("exact", "hybrid")[(index // 20) % 2],
            )
        return spec

    def _wrap_store(self, store) -> None:
        """Time the store's public read and write calls with spans."""
        get_many, put_result = store.get_many, store.put_result
        spans = self.spans

        def traced_get_many(keys):
            with spans.span("store.get_many"):
                return get_many(keys)

        def traced_put_result(key, result):
            with spans.span("store.put_result"):
                return put_result(key, result)

        store.get_many = traced_get_many
        store.put_result = traced_put_result

    def run(self, seconds=None, requests=None) -> Pass:
        if self._passes:
            self._build_service()
        self._passes += 1
        service, store = self.service, self.store
        if self.spans.enabled:
            self._wrap_store(store)
        out = Pass()
        cursor = iter(range(len(self.stream)))
        replies: list = []  # (stream position, raw host seconds, result)
        spans = self.spans

        async def client(budget, block):
            while budget[0] > 0:
                n = next(cursor, None)
                if n is None:
                    return
                budget[0] -= 1
                spec = self.spec(self.stream[n])
                start = time.perf_counter()
                try:
                    with spans.op(f"req{n}"), spans.span("run_sweep"):
                        result = await service.run_sweep(spec)
                except Exception:  # noqa: BLE001 - a failed request, counted in verify
                    report_failure(f"sweep request {n}")
                    result = None
                block.append((n, time.perf_counter() - start, result))

        async def drive():
            speed = Speed()
            async with service:
                t0 = time.perf_counter()
                while True:
                    size = SERVICE_BLOCK
                    if requests is not None:
                        size = min(size, requests - len(replies))
                    if size <= 0:
                        break
                    budget, block = [size], []
                    start = time.perf_counter()
                    await asyncio.gather(
                        *(client(budget, block) for _ in range(self.CLIENTS))
                    )
                    if not block:
                        break
                    wall = time.perf_counter() - start
                    # Nothing is in flight between blocks: the probe
                    # has the interpreter to itself.
                    factor = speed.bracket(wall)
                    out.rates.append(len(block) / (wall * factor))
                    out.latencies.extend(lat * factor for _, lat, _ in block)
                    replies.extend(block)
                    if seconds is not None and time.perf_counter() - t0 >= seconds:
                        break
                out.wall = time.perf_counter() - t0
                out.speed = speed.samples
                return dict(service.counters)

        counters = asyncio.run(drive())
        out.ops = len(replies)
        out.attempted = len(replies)
        for key, value in counters.items():
            out.counts[f"service.{key}"] += value
        out.counts["ranks_launched"] += counters["executed"] * 8  # 2 nodes x 4 ppn
        for key, value in store.cumulative_counters().items():
            out.counts[f"store.{key}"] += value
        out.counts["store.read_s"] = spans.total("store.get_many")
        out.counts["store.write_s"] = spans.total("store.put_result")
        reads = spans.per_op("store.get_many")
        out.counts["service.queue_wait_s"] = sum(
            lat - reads.get(f"req{n}", 0.0) for n, lat, _ in replies
        )
        self.replies.extend(replies)
        return out

    def verify(self):
        from repro.bench.executor import SerialExecutor
        from repro.payload.payload import payload_counters, reset_payload_counters

        serial = SerialExecutor()
        references: dict = {}
        digest_specs = list(dict.fromkeys(self.stream))[: self.DIGEST_SPECS]
        payloads = {}
        wanted = digest_specs + sorted({self.stream[n] for n, _, _ in self.replies})
        for index in wanted:
            if index in references:
                continue
            reset_payload_counters()
            references[index] = serial.run(self.spec(index)).to_json(include_meta=False)
            payloads[index] = payload_counters()
        failed = 0
        for n, _, result in self.replies:
            if result is None or not result.ok \
                    or result.to_json(include_meta=False) != references[self.stream[n]]:
                print(f"check failed: request {n} differs from its serial reference",
                      file=sys.stderr)
                failed += 1
        from repro.machine.clusters import get_cluster

        twins = [
            (get_cluster(c, nodes=2), 8, 4, alg, 16384, leaders, None)
            for c in "abcd"
            for alg, leaders in self.TWIN_FAMILIES
        ]
        self.errors, twin_failed = twin_errors(self.spans, twins)
        self.digest_parts = {
            "references": [references[i] for i in digest_specs],
            "payload": [payloads[i] for i in digest_specs],
            "hybrid_err": self.errors,
        }
        return len(twins), twin_failed + failed


class TrafficTenants(Workload):
    """A seeded Poisson stream of 40 tenant jobs (osu, sgd, hpcg, miniamr
    at 2-8 nodes x 8 ppn) on a 16-node Cluster A fat tree with one
    spine, ``spread`` placement, metering on."""

    name = "traffic_tenants"
    op_unit = "tenant jobs"
    NODES, PPN = 16, 8
    RATE = 20000.0  #: job arrivals per simulated second; enough for a backlog
    COPIES = 5  #: each template appears this often in a trace
    TEMPLATES = (
        {"app": "osu", "nodes": 2, "nbytes": 65536, "iterations": 4},
        {"app": "osu", "nodes": 8, "nbytes": 65536, "iterations": 4},
        {"app": "sgd", "nodes": 2, "nbytes": 262144, "iterations": 2},
        {"app": "sgd", "nodes": 4, "nbytes": 262144, "iterations": 2},
        {"app": "hpcg", "nodes": 4, "nbytes": 32768, "iterations": 3},
        {"app": "hpcg", "nodes": 8, "nbytes": 32768, "iterations": 3},
        {"app": "miniamr", "nodes": 2, "nbytes": 131072, "iterations": 3,
         "algorithm": "rabenseifner"},
        {"app": "miniamr", "nodes": 4, "nbytes": 131072, "iterations": 3,
         "algorithm": "rabenseifner"},
    )

    def setup(self):
        super().setup()
        from repro.machine.clusters import cluster_a
        from repro.machine.fattree import FatTreeConfig
        from repro.traffic import SharedFabric

        self.config = dataclasses.replace(
            cluster_a(self.NODES),
            topology=FatTreeConfig(nodes_per_leaf=4, spines=1),
        )
        self.trace = self._trace()
        with self.spans.span("SharedFabric"):
            self.fabric = SharedFabric(self.config)
        self.results: list = []

    def _trace(self):
        """Every template ``COPIES`` times in seeded order, Poisson arrivals
        (the same total work for every seed)."""
        from repro.traffic import JobSpec, TrafficTrace

        rng = random.Random(self.seed)
        jobs = [t for t in self.TEMPLATES for _ in range(self.COPIES)]
        rng.shuffle(jobs)
        arrival = 0.0
        specs = []
        for template in jobs:
            arrival += rng.expovariate(self.RATE)
            specs.append(JobSpec(arrival=round(arrival, 9), ppn=self.PPN, **template))
        return TrafficTrace(jobs=tuple(specs))

    def run(self, seconds=None, requests=None) -> Pass:
        from repro.payload.payload import payload_counters, reset_payload_counters
        from repro.traffic import run_traffic

        out = Pass()
        speed = Speed()
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            out.attempted += 1
            reset_payload_counters()
            try:
                with self.spans.op(f"replay{len(self.results)}"), self.spans.span("run_traffic"):
                    result = run_traffic(
                        self.trace, fabric=self.fabric, placement="spread",
                        seed=self.seed,
                    )
            except Exception:  # noqa: BLE001 - counted, the run goes on
                report_failure("traffic replay")
                out.failed += 1
                speed.bracket(time.perf_counter() - start)
            else:
                raw = time.perf_counter() - start
                out.latencies.append(raw * speed.bracket(raw))
                out.rates.append(result.n_jobs / out.latencies[-1])
                out.ops += result.n_jobs
                sim = self.fabric.sim.counters()
                out.counts.update(sim)
                for key, value in payload_counters().items():
                    out.counts[f"payload.{key}"] += value
                for job in result.jobs:
                    out.counts["ranks_launched"] += job.spec.nranks
                    out.counts["traffic.queue_wait_sim_s"] += job.queue_wait
                    for queue in ("nic_tx", "mem", "engine"):
                        out.counts[f"traffic.{queue}_jobs"] += job.counters[queue]["jobs"]
                out.counts["traffic.samples"] += len(result.series)
                if not self.results:
                    self.digest_parts = {
                        "result": result.to_canonical_json(),
                        "sim": sim,
                        "payload": payload_counters(),
                    }
                self.results.append(result.to_canonical_json())
            elapsed = time.perf_counter() - t0
            done = len(out.latencies) + out.failed
            if requests is not None:
                if done >= requests:
                    break
            elif elapsed + elapsed / done > seconds:
                break
        out.wall = time.perf_counter() - t0
        out.speed = speed.samples
        return out

    def verify(self):
        from repro.machine.clusters import cluster_a

        failed = 0
        expected = len(self.trace.jobs)
        for i, canonical in enumerate(self.results):
            if canonical != self.results[0] or len(json.loads(canonical)["jobs"]) != expected:
                print(f"check failed: replay {i} on the reused fabric differs "
                      "from the fresh-fabric replay", file=sys.stderr)
                failed += 1
        shapes = sorted({
            (t["nodes"], t.get("algorithm", "dpml"), t["nbytes"]) for t in self.TEMPLATES
        })
        twins = [
            (cluster_a(nodes), nodes * self.PPN, self.PPN, alg, nbytes, None, None)
            for nodes, alg, nbytes in shapes
        ]
        self.errors, twin_failed = twin_errors(self.spans, twins)
        self.digest_parts["hybrid_err"] = self.errors
        return len(twins), failed + twin_failed


WORKLOADS = {
    cls.name: cls for cls in (ExactGrid, HybridScale, ServiceMixed, TrafficTenants)
}
