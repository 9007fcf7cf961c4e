r"""The discrete-event loop: events, processes, and the simulator.

The kernel is deliberately tiny.  A *process* is a Python generator that
``yield``\ s *waitables* (events).  The simulator owns a binary heap of
``(time, sequence, event)`` triples plus a FIFO *now-queue* of
zero-delay work; when an event fires, every process waiting on it is
resumed with the event's value (or has the event's exception thrown
into it).

Determinism
-----------
Two events scheduled for the same timestamp fire in the order they were
scheduled (ties broken by a monotone sequence counter), so a simulation
is a pure function of its inputs — crucial for reproducing the paper's
figures and for debugging collective algorithms.

The now-queue preserves this guarantee exactly.  Every schedule —
heap-bound or not — consumes one sequence number, and the dispatcher
always runs the globally smallest ``(time, sequence)`` pair next: a
heap entry pre-empts the now-queue head only when its timestamp has
already been reached *and* its sequence number is smaller.  The
resulting event order is bit-identical to an all-heap kernel
(``Simulator(compat=True)`` keeps that kernel as the reference the
golden-determinism tests compare against).

Fast paths
----------
The hot paths avoid allocation wherever the slow kernel used a
throwaway ``Event``:

* zero-delay wakeups append a tuple to the now-queue instead of a heap
  push;
* process start and :meth:`Process.interrupt` enqueue a direct resume
  (no starter/proxy ``Event``);
* waiting on an already-processed event enqueues the callback itself;
* the first waiter of an event is stored in a slot (``_cb1``); the
  callback list is only allocated for the second waiter;
* processed one-shot events (``Event``/``Timeout``/``AllOf``) that no
  one else references are recycled through per-class free pools.

Deadlock detection
------------------
:meth:`Simulator.run` raises :class:`~repro.errors.DeadlockError` when
the event heap drains while processes are still alive and blocked.  This
is the simulated analogue of an MPI job hanging on an unmatched receive,
and it turns subtle collective-algorithm bugs into crisp test failures.

Sanitizing
----------
``Simulator(sanitize=True)`` (or the ``REPRO_SANITIZE=1`` environment
variable, consulted by every constructor) installs a
:class:`~repro.check.sanitizer.Sanitizer` on ``self.sanitizer``.  The
kernel then checks event-time monotonicity on every step and hands the
sanitizer the blocked-process wait graph when a deadlock is detected;
the MPI layers above feed the same sanitizer their own invariants (see
:mod:`repro.check`).  The hot loop pays a single ``is None`` test for
this when the sanitizer is off.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.errors import DeadlockError, InterruptError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
]

# Event lifecycle states.
_PENDING = 0  # not yet triggered
_SCHEDULED = 1  # value decided, sitting in the heap or now-queue
_PROCESSED = 2  # callbacks have run; .value is final

# Now-queue entry kinds.  Entries are (seq, kind, a, b, c) tuples; the
# payload fields depend on the kind.
_NQ_EVENT = 0  # a: scheduled Event -> a._process()
_NQ_CB = 1  # a: callback, b: processed source event -> a(b)
_NQ_RESUME = 2  # a: Process, b: value, c: ok -> a._resume_with(b, c)

# Free-pool tuning.  ``_POOLED_REFS`` is the refcount of an event whose
# only remaining references are the dispatcher's local, the
# ``_recycle`` parameter, and ``getrefcount``'s own argument — i.e.
# nobody retained it.  If a future interpreter counts differently the
# comparison simply never matches and recycling is skipped (safe);
# tests/sim/test_engine.py asserts reuse actually happens on CPython.
_POOLED_REFS = 3
_POOL_CAP = 4096
_getrefcount = getattr(sys, "getrefcount", None)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    schedules it on the simulator's heap (optionally after a delay), and
    once the loop reaches it, its callbacks run and it becomes
    *processed*.  Waiting on an already-processed event resumes the
    waiter immediately (at the current simulation time).

    The first waiter lives in the ``_cb1`` slot; ``callbacks`` stays
    ``None`` until a second waiter arrives, so the common single-waiter
    case allocates no list.
    """

    __slots__ = ("sim", "_cb1", "callbacks", "_value", "_ok", "_state", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb1: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok: bool = True
        self._state: int = _PENDING
        sim._n_events += 1

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value/exception has been decided."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful with ``value`` after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self._state = _SCHEDULED
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed with ``exception`` after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = _SCHEDULED
        self.sim._schedule(self, delay)
        return self

    # -- internal ----------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks.  Called exactly once by the event loop."""
        self._state = _PROCESSED
        cb1 = self._cb1
        callbacks = self.callbacks
        self._cb1 = None
        self.callbacks = None
        if cb1 is not None:
            cb1(self)
        if callbacks:
            for cb in callbacks:
                cb(self)

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Attach ``cb``; fires immediately (at the current time, in
        schedule order) if the event has already been processed."""
        if self._state == _PROCESSED:
            sim = self.sim
            if sim._compat:
                # Late waiter: resume it through a fresh zero-delay
                # event so ordering stays heap-mediated.
                proxy = Event(sim)
                proxy._cb1 = cb
                proxy._value = self._value
                proxy._ok = self._ok
                proxy._state = _SCHEDULED
                sim._schedule(proxy, 0.0)
            else:
                sim._seq += 1
                sim._n_nowq += 1
                sim._nowq.append((sim._seq, _NQ_CB, cb, self, None))
        elif self._cb1 is None and self.callbacks is None:
            self._cb1 = cb
        elif self.callbacks is None:
            self.callbacks = [cb]
        else:
            self.callbacks.append(cb)

    def _remove_callback(self, cb: Callable[["Event"], None]) -> None:
        """Detach the first callback equal to ``cb`` (no-op if absent)."""
        if self._cb1 is not None and self._cb1 == cb:
            lst = self.callbacks
            if lst:
                self._cb1 = lst.pop(0)
                if not lst:
                    self.callbacks = None
            else:
                self._cb1 = None
            return
        lst = self.callbacks
        if lst is not None:
            try:
                lst.remove(cb)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _SCHEDULED: "scheduled", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._value = value
        self._ok = True
        self._state = _SCHEDULED
        sim._schedule(self, delay)


class Process(Event):
    """A running generator coroutine.

    A process is itself an event: it triggers with the generator's
    return value when the generator finishes (or with the exception if
    it raises), so processes can be ``yield``-ed to join them.
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function or to use "
                "'yield from' inside it?"
            )
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        sim._live_processes.add(self)
        # Kick off at the current time.
        if sim._compat:
            starter = Event(sim)
            starter._value = None
            starter._ok = True
            starter._state = _SCHEDULED
            starter._cb1 = self._resume
            sim._schedule(starter, 0.0)
        else:
            sim._seq += 1
            sim._n_nowq += 1
            sim._nowq.append((sim._seq, _NQ_RESUME, self, None, True))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process.

        The process is resumed at the current simulation time regardless
        of what it was waiting for (the original wait target stays
        triggered-able; its resumption of this process is disarmed).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        target = self._waiting_on
        if target is not None:
            target._remove_callback(self._resume)
        self._waiting_on = None
        sim = self.sim
        if sim._compat:
            proxy = Event(sim)
            proxy._value = InterruptError(cause)
            proxy._ok = False
            proxy._state = _SCHEDULED
            proxy._cb1 = self._resume
            sim._schedule(proxy, 0.0)
        else:
            sim._seq += 1
            sim._n_nowq += 1
            sim._nowq.append(
                (sim._seq, _NQ_RESUME, self, InterruptError(cause), False)
            )

    # -- internal ----------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger's outcome."""
        self._resume_with(trigger._value, trigger._ok)

    def _resume_with(self, value: Any, ok: bool) -> None:
        """Advance the generator with an outcome (value + success flag)."""
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            if ok:
                target = self._gen.send(value)
            else:
                target = self._gen.throw(value)
        except StopIteration as stop:
            sim._active_process = None
            sim._live_processes.discard(self)
            self._value = stop.value
            self._ok = True
            self._state = _SCHEDULED
            sim._schedule(self, 0.0)
            return
        except BaseException as exc:
            sim._active_process = None
            sim._live_processes.discard(self)
            if (
                self._cb1 is None
                and not self.callbacks
                and not sim._catch_process_errors
            ):
                # Nobody is joining this process: surface the failure.
                raise
            self._value = exc
            self._ok = False
            self._state = _SCHEDULED
            sim._schedule(self, 0.0)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances (Timeout, Process, AllOf, ...)"
            )
        if target.sim is not sim:
            raise SimulationError("yielded an event belonging to another Simulator")
        self._waiting_on = target
        target._add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {status}>"


class AllOf(Event):
    """Fires once every child event has fired.

    Succeeds with the list of child values (in the order the children
    were given).  Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining", "_failed")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._arm(events)

    def _arm(self, events: Iterable[Event]) -> None:
        self._children = list(events)
        self._remaining = len(self._children)
        self._failed = False
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child._add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._state != _PENDING or self._failed:
            return
        if not child._ok:
            self._failed = True
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires as soon as any child event fires.

    Succeeds with ``(index, value)`` of the first child to complete;
    fails if that child failed.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for idx, child in enumerate(self._children):
            child._add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self._state != _PENDING:
                return
            if child._ok:
                self.succeed((idx, child._value))
            else:
                self.fail(child._value)

        return on_child


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    3.0

    ``compat=True`` disables every fast path — all scheduling goes
    through the heap and no event is pooled — reproducing the original
    kernel's allocation behaviour exactly.  Results are bit-identical
    either way; compat exists only as the reference the
    golden-determinism tests compare the fast kernel against.
    """

    def __init__(
        self,
        sanitize: Union[bool, Any, None] = None,
        compat: bool = False,
    ) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._nowq: deque = deque()
        self._seq: int = 0
        self._live_processes: set[Process] = set()
        self._active_process: Optional[Process] = None
        # When True, a process that dies with an exception stores it on
        # the Process event instead of propagating out of run().  The MPI
        # runtime enables this so one failing rank reports cleanly.
        self._catch_process_errors: bool = False
        self._compat: bool = bool(compat)
        # Free pools of processed, unreferenced one-shot events.
        self._pool_event: list[Event] = []
        self._pool_timeout: list[Timeout] = []
        self._pool_allof: list[AllOf] = []
        # Deterministic perf counters (see ``counters()``).
        self._n_events: int = 0
        self._n_heap_push: int = 0
        self._n_heap_pop: int = 0
        self._n_nowq: int = 0
        self._n_pool_hit: int = 0
        self._n_pool_evict: int = 0
        self._n_macro: int = 0
        #: per-run log of macro charges: ``(label, start_time, duration,
        #: ((phase, seconds), ...))`` tuples in charge order.  Consumed
        #: by the hybrid-fidelity spot-check oracle; cleared on reset().
        self.macro_log: list[tuple] = []
        # ``sanitize`` is tri-state: None consults REPRO_SANITIZE, a
        # bool forces it, and a Sanitizer instance is installed as-is
        # (lazy import: repro.check sits above the kernel in the
        # layering and must not be a hard dependency of it).
        if sanitize is None or sanitize is True or sanitize is False:
            from repro.check.sanitizer import as_sanitizer

            self._sanitizer = as_sanitizer(sanitize)
        else:
            self._sanitizer = sanitize

    @property
    def sanitizer(self):
        """The installed :class:`~repro.check.sanitizer.Sanitizer` (or None)."""
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, value) -> None:
        self._sanitizer = value

    def reset(self) -> None:
        """Rewind to the pristine ``t=0`` state of a fresh simulator.

        Drops every scheduled event and registered process, restarts
        the tie-breaking sequence counter, and zeroes the perf
        counters, so the next run is again a pure function of its
        inputs: a run on a reset simulator produces results
        bit-identical to the same run on a newly constructed one.  The
        event free pools are deliberately *kept* — reuse never changes
        results, but it does mean ``events_allocated`` on a reused
        session reads lower than on a cold one (the perf harness uses
        fresh sessions for exactly this reason).  Objects holding their
        own state against this simulator (queues, resources, stores)
        must be reset by their owners — see
        :meth:`repro.machine.machine.Machine.reset`.
        """
        self.now = 0.0
        self._heap.clear()
        self._nowq.clear()
        self._seq = 0
        self._live_processes.clear()
        self._active_process = None
        self._catch_process_errors = False
        self._n_events = 0
        self._n_heap_push = 0
        self._n_heap_pop = 0
        self._n_nowq = 0
        self._n_pool_hit = 0
        self._n_pool_evict = 0
        self._n_macro = 0
        self.macro_log.clear()
        if self._sanitizer is not None:
            self._sanitizer.reset()

    def counters(self) -> dict[str, int]:
        """Deterministic kernel counters since construction/:meth:`reset`.

        ``events_allocated`` counts ``Event.__init__`` calls (pool
        reuses skip it); ``pool_reuses`` counts factory hits on the
        free pools; ``nowq_entries`` counts zero-delay dispatches that
        bypassed the heap; ``pool_evictions`` counts recyclable events
        dropped because their pool was at :data:`_POOL_CAP` (bounded
        pool memory at 10k+ ranks); ``macro_events`` counts
        :meth:`macro_charge` dispatches (hybrid-fidelity phase charges).
        """
        return {
            "events_allocated": self._n_events,
            "heap_pushes": self._n_heap_push,
            "heap_pops": self._n_heap_pop,
            "nowq_entries": self._n_nowq,
            "pool_reuses": self._n_pool_hit,
            "pool_evictions": self._n_pool_evict,
            "macro_events": self._n_macro,
        }

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event (recycled when possible)."""
        pool = self._pool_event
        if pool:
            self._n_pool_hit += 1
            return pool.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay``."""
        pool = self._pool_timeout
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            self._n_pool_hit += 1
            t = pool.pop()
            t._value = value
            t._state = _SCHEDULED
            self._schedule(t, delay)
            return t
        return Timeout(self, delay, value)

    def process(
        self, gen: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Register ``gen`` as a new process starting now."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        pool = self._pool_allof
        if pool:
            self._n_pool_hit += 1
            ev = pool.pop()
            ev._arm(events)
            return ev
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        if delay == 0.0 and not self._compat:
            self._n_nowq += 1
            self._nowq.append((self._seq, _NQ_EVENT, event, None, None))
        else:
            self._n_heap_push += 1
            heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def macro_charge(
        self,
        event: Event,
        value: Any = None,
        delay: float = 0.0,
        *,
        label: str = "",
        phases: tuple = (),
    ) -> None:
        """Charge a whole validated phase group as one macro-event.

        Hybrid-fidelity mode replaces the per-message coroutine dance of
        a collective phase with a single scheduled completion: ``event``
        fires with ``value`` after ``delay`` simulated seconds, exactly
        as if the exact path had run — but in one heap push instead of
        thousands.  ``label`` and ``phases`` (``(name, seconds)`` pairs
        that sum to ``delay``) are appended to :attr:`macro_log` so the
        spot-check oracle can compare each charge against an exact
        re-execution.
        """
        self._n_macro += 1
        self.macro_log.append((label, self.now, delay, tuple(phases)))
        event.succeed(value, delay=delay)

    # -- execution ----------------------------------------------------------

    def _dispatch_heap(self) -> None:
        """Pop and process the heap head."""
        when, _, event = heapq.heappop(self._heap)
        self._n_heap_pop += 1
        if self._sanitizer is not None and when < self.now:
            self._sanitizer.heap_regression(self.now, when, event)
            raise SimulationError(
                f"event-time regression: next event at t={when} but the "
                f"clock already reached t={self.now}"
            )
        self.now = when
        event._process()
        self._recycle(event)

    def _dispatch_nowq(self) -> None:
        """Run the now-queue head (always at the current time)."""
        _, kind, a, b, c = self._nowq.popleft()
        if kind == _NQ_EVENT:
            a._process()
            self._recycle(a)
        elif kind == _NQ_RESUME:
            a._resume_with(b, c)
        else:  # _NQ_CB: late-attached callback, original event as trigger
            a(b)

    def _recycle(self, event: Event) -> None:
        """Return a processed, otherwise-unreferenced event to its pool."""
        if _getrefcount is None or self._compat:
            return
        cls = event.__class__
        if cls is Event:
            pool = self._pool_event
        elif cls is Timeout:
            pool = self._pool_timeout
        elif cls is AllOf:
            pool = self._pool_allof
        else:
            return
        if _getrefcount(event) != _POOLED_REFS:
            return
        if len(pool) >= _POOL_CAP:
            # Recyclable but the pool is full: drop it so pool memory
            # stays bounded instead of growing to the high-water mark.
            self._n_pool_evict += 1
            return
        event._cb1 = None
        event.callbacks = None
        event._value = None
        event._ok = True
        event._state = _PENDING
        if cls is AllOf:
            event._children = []
        pool.append(event)

    def step(self) -> None:
        """Process the single next event.

        The now-queue head runs unless a heap entry is both due
        (``time <= now``) and older (smaller sequence number) — the
        comparison that makes the split queues equivalent to one
        totally-ordered ``(time, sequence)`` heap.
        """
        nowq = self._nowq
        heap = self._heap
        if nowq and not (
            heap and heap[0][0] <= self.now and heap[0][1] < nowq[0][0]
        ):
            self._dispatch_nowq()
        else:
            self._dispatch_heap()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queues drain or ``until`` is reached.

        Raises :class:`DeadlockError` if the queues drain while
        processes are still alive (blocked on events nobody will
        trigger).
        """
        heap = self._heap
        nowq = self._nowq
        while nowq or heap:
            if nowq and not (
                heap and heap[0][0] <= self.now and heap[0][1] < nowq[0][0]
            ):
                self._dispatch_nowq()
            elif until is not None and heap[0][0] > until:
                self.now = until
                return
            else:
                self._dispatch_heap()
        if self._live_processes:
            blocked = sorted(p.name for p in self._live_processes)
            wait_graph = (
                self._sanitizer.on_deadlock(self)
                if self._sanitizer is not None
                else None
            )
            preview = ", ".join(blocked[:8])
            more = "" if len(blocked) <= 8 else f" (+{len(blocked) - 8} more)"
            raise DeadlockError(
                f"simulation deadlocked at t={self.now}: "
                f"{len(blocked)} process(es) still blocked: {preview}{more}",
                blocked=blocked,
                wait_graph=wait_graph,
            )

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none)."""
        if self._nowq:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")
