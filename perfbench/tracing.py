"""Spans and per-layer host self time for the benchmark's traced run.

Two instruments, both off in untraced runs:

* :class:`Spans` records a span (name, start, end, parent, op id) around
  each call the benchmark makes into a layer.  Spans stay in memory and
  are written out once, when the run ends.
* :class:`LayerProfiler` runs ``cProfile`` on the main thread and on
  every thread started while it is on (the sweep service's workers),
  then charges each function's self time to a ``repro`` layer by module
  prefix.  Time in numpy, builtins and other foreign code is charged to
  the ``repro`` modules that called it, split by the caller edges the
  profiler recorded.  The main thread is timed by the wall clock; other
  threads by their own CPU time, so a worker waiting for the interpreter
  lock is not counted a second time.  Whatever the layers do not
  account for (the benchmark's own code, the standard library, idle
  waits) is the ``other`` remainder of the traced wall.
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import itertools
import json
import pstats
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Module prefix -> layer.  The longest matching prefix wins; other
#: ``repro`` modules and foreign code not called from ``repro`` belong
#: to no layer.
LAYER_PREFIXES = {
    "repro.sim": "sim",
    "repro.mpi.runtime": "runtime",
    "repro.machine": "machine",
    "repro.mpi.transport": "transport",
    "repro.mpi.matching": "transport",
    "repro.mpi.comm": "transport",
    "repro.mpi.request": "transport",
    "repro.mpi.shm": "shm",
    "repro.payload": "payload",
    "repro.mpi.collectives": "collectives",
    "repro.core": "core",
    "repro.bench": "bench",
    "repro.traffic": "traffic",
}
LAYERS = tuple(dict.fromkeys(LAYER_PREFIXES.values()))

_span_ids = itertools.count(1)
_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_current_op: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None
)


class Spans:
    """In-memory span log; a disabled log records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Tag every span opened inside (and in tasks/threads copying the
        context, such as ``asyncio.to_thread``) with ``op_id``."""
        token = _current_op.set(op_id)
        try:
            yield
        finally:
            _current_op.reset(token)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = next(_span_ids)
        parent = _current_span.get()
        token = _current_span.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current_span.reset(token)
            record = {
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": _current_op.get(),
            }
            with self._lock:
                self.records.append(record)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def per_op(self, name: str) -> dict:
        """``{op id: summed duration}`` of the spans called ``name``."""
        out: dict = defaultdict(float)
        for r in self.records:
            if r["name"] == name:
                out[r["op"]] += r["end"] - r["start"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records) + "\n")


def _module_of(filename: str):
    """``repro.x.y`` for a file under a ``repro`` package, else ``None``."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    mod = list(parts[idx:])
    if mod[-1] == "__init__":
        mod.pop()
    return ".".join(mod)


def layer_of(module):
    """The layer of a ``repro`` module, or ``None``."""
    best = ""
    for prefix in LAYER_PREFIXES:
        if module is not None and (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else None


class LayerProfiler:
    """cProfile over this thread and every thread started while on."""

    def __init__(self):
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self.stats = None

    def _thread_hook(self, frame, event, arg):
        sys.setprofile(None)
        prof = cProfile.Profile(time.thread_time)
        with self._lock:
            self._profiles.append(prof)
        prof.enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        main = cProfile.Profile()
        self._profiles.append(main)
        main.enable()

    def stop(self) -> None:
        """Stop and merge.  Call only after every profiled worker thread
        has exited (their profilers are read from this thread)."""
        self._profiles[0].disable()
        threading.setprofile(None)
        stats = pstats.Stats(self._profiles[0])
        for prof in self._profiles[1:]:
            stats.add(prof)
        self.stats = stats.stats  # {(file, line, name): (cc, nc, tt, ct, callers)}

    # -- queries -------------------------------------------------------------

    def module_self_times(self) -> dict:
        """Self seconds per ``repro`` module (``None`` = unattributed)."""
        stats = self.stats
        memo: dict = {}

        def owners(func, visiting):
            module = _module_of(func[0])
            if module is not None:
                return {module: 1.0}
            if func in memo:
                return memo[func]
            callers = stats[func][4] if func in stats else {}
            weights = {c: edge[2] for c, edge in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
            share: dict = defaultdict(float)
            if total <= 0 or func in visiting:
                share[None] = 1.0
            else:
                visiting.add(func)
                for caller, w in weights.items():
                    for mod, frac in owners(caller, visiting).items():
                        share[mod] += frac * w / total
                visiting.discard(func)
            memo[func] = dict(share)
            return memo[func]

        out: dict = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            for mod, frac in owners(func, set()).items():
                out[mod] += tt * frac
        return dict(out)

    def layer_self_times(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for module, seconds in self.module_self_times().items():
            layer = layer_of(module)
            if layer in out:
                out[layer] += seconds
        return out

    def _match(self, target):
        """Stats entries of a function object, or of ``(path suffix, name)``."""
        if callable(target):
            code = getattr(target, "__func__", target).__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            return [self.stats[key]] if key in self.stats else []
        suffix, name = target
        return [
            entry for (f, _l, n), entry in self.stats.items()
            if f.endswith(suffix) and (name is None or n == name)
        ]

    def calls(self, target) -> int:
        return sum(entry[1] for entry in self._match(target))

    def cumulative(self, target) -> float:
        return sum(entry[3] for entry in self._match(target))
