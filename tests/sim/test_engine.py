"""Tests for the discrete-event kernel (events, processes, composites)."""

import pytest

from repro.errors import DeadlockError, InterruptError, SimulationError
from repro.sim import AllOf, AnyOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestTimeout:
    def test_single_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(2.5)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 2.5
        assert sim.now == 2.5

    def test_timeout_carries_value(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value="payload")
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == "payload"

    def test_zero_delay_timeout_fires_at_now(self, sim):
        def proc():
            yield sim.timeout(0.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            for _ in range(5):
                yield sim.timeout(0.5)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(2.5)


class TestEventOrdering:
    def test_same_time_events_fire_in_creation_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ["a", "b", "c", "d"]:
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_earlier_events_fire_first(self, sim):
        order = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc("late", 3.0))
        sim.process(proc("early", 1.0))
        sim.process(proc("mid", 2.0))
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_run_is_deterministic(self):
        def build():
            sim = Simulator()
            log = []

            def proc(i):
                yield sim.timeout(i % 3)
                log.append(i)
                yield sim.timeout(0.5)
                log.append(-i)

            for i in range(20):
                sim.process(proc(i))
            sim.run()
            return log

        assert build() == build()


class TestEvents:
    def test_manual_event_succeed(self, sim):
        ev = sim.event()

        def waiter():
            val = yield ev
            return val

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed(42)

        w = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert w.value == 42

    def test_event_fail_raises_in_waiter(self, sim):
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(ValueError("boom"))

        w = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert w.value == "caught boom"

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_waiting_on_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")

        def late_waiter():
            yield sim.timeout(5.0)
            val = yield ev
            return (sim.now, val)

        w = sim.process(late_waiter())
        sim.run()
        assert w.value == (5.0, "early")

    def test_multiple_waiters_all_resumed(self, sim):
        ev = sim.event()
        results = []

        def waiter(i):
            val = yield ev
            results.append((i, val))

        for i in range(3):
            sim.process(waiter(i))

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed("x")

        sim.process(trigger())
        sim.run()
        assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]

    def test_non_generator_iterable_rejected(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.process(iter([]))  # iterators without send() are not processes


class TestProcess:
    def test_process_is_joinable(self, sim):
        def child():
            yield sim.timeout(2.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        p = sim.process(parent())
        sim.run()
        assert p.value == (2.0, "done")

    def test_join_finished_process(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 7

        c = sim.process(child())

        def parent():
            yield sim.timeout(3.0)
            result = yield c
            return result

        p = sim.process(parent())
        sim.run()
        assert p.value == 7

    def test_unhandled_exception_propagates_from_run(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()

    def test_joined_process_failure_raises_in_parent(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        def parent():
            try:
                yield sim.process(bad())
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught kaput"

    def test_yielding_non_event_is_an_error(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="yielded"):
            sim.run()

    def test_cross_simulator_event_rejected(self, sim):
        other = Simulator()

        def bad():
            yield other.timeout(1.0)

        sim.process(bad())
        with pytest.raises(SimulationError, match="another Simulator"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_interrupt_wakes_blocked_process(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except InterruptError as exc:
                return ("interrupted", sim.now, exc.cause)

        victim = sim.process(sleeper())

        def killer():
            yield sim.timeout(2.0)
            victim.interrupt(cause="enough")

        sim.process(killer())
        sim.run()
        assert victim.value == ("interrupted", 2.0, "enough")

    def test_interrupting_finished_process_is_error(self, sim):
        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestComposites:
    def test_all_of_waits_for_slowest(self, sim):
        def parent():
            evs = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
            values = yield sim.all_of(evs)
            return (sim.now, values)

        p = sim.process(parent())
        sim.run()
        assert p.value == (3.0, [1.0, 3.0, 2.0])

    def test_all_of_empty_completes_immediately(self, sim):
        def parent():
            values = yield sim.all_of([])
            return (sim.now, values)

        p = sim.process(parent())
        sim.run()
        assert p.value == (0.0, [])

    def test_all_of_fails_fast(self, sim):
        ev = sim.event()

        def failer():
            yield sim.timeout(1.0)
            ev.fail(ValueError("nope"))

        def parent():
            try:
                yield sim.all_of([sim.timeout(10.0), ev])
            except ValueError:
                return sim.now

        p = sim.process(parent())
        sim.process(failer())
        sim.run()
        assert p.value == 1.0

    def test_any_of_returns_first(self, sim):
        def parent():
            idx, val = yield sim.any_of(
                [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")]
            )
            return (sim.now, idx, val)

        p = sim.process(parent())
        sim.run()
        assert p.value == (1.0, 1, "fast")

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestRunControl:
    def test_run_until_stops_clock(self, sim):
        fired = []

        def proc():
            yield sim.timeout(10.0)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run()
        assert fired

    def test_deadlock_detection(self, sim):
        ev = sim.event()  # never triggered

        def stuck():
            yield ev

        sim.process(stuck(), name="stuck-rank")
        with pytest.raises(DeadlockError, match="stuck-rank"):
            sim.run()

    def test_deadlock_lists_blocked_processes(self, sim):
        ev = sim.event()

        def stuck(i):
            yield ev if i == 0 else sim.event()

        for i in range(3):
            sim.process(stuck(i), name=f"p{i}")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert sorted(err.value.blocked) == ["p0", "p1", "p2"]

    def test_peek_reports_next_event_time(self, sim):
        def proc():
            yield sim.timeout(4.0)

        sim.process(proc())
        sim.step()  # process start event
        assert sim.peek() == 4.0

    def test_peek_sees_pending_now_queue_work(self, sim):
        def proc():
            yield sim.timeout(4.0)

        sim.process(proc())
        # In fast mode the process-start wakeup sits in the now-queue,
        # not the heap; peek must still report it as due *now*.
        assert sim._nowq
        assert sim.peek() == sim.now == 0.0


def _mixed_scenario(sim):
    """A workload touching every kernel path; returns its event log.

    Same-time timeouts, manual events with multiple waiters, late
    attachment to an already-processed event, composites, and an
    interrupt — the paths whose fast-mode rewrites must preserve the
    seed's deterministic tie order exactly.
    """
    log = []

    ev = sim.event()
    done = sim.event()

    def racer(tag, delay):
        yield sim.timeout(delay)
        log.append((tag, sim.now))

    def waiter(i):
        val = yield ev
        log.append((f"w{i}", sim.now, val))

    def late_waiter():
        yield sim.timeout(3.0)
        val = yield ev  # ev processed long ago: late-attach path
        log.append(("late", sim.now, val))

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("x")
        log.append(("trigger", sim.now))

    def composite():
        values = yield sim.all_of([sim.timeout(0.5, "a"), sim.timeout(2.0, "b")])
        log.append(("all", sim.now, tuple(values)))
        idx, val = yield sim.any_of([sim.timeout(9.0), sim.timeout(0.0, "now")])
        log.append(("any", sim.now, idx, val))
        done.succeed()

    def sleeper():
        try:
            yield sim.timeout(50.0)
        except InterruptError as exc:
            log.append(("interrupted", sim.now, exc.cause))

    victim = sim.process(sleeper())

    def killer():
        yield done
        victim.interrupt(cause="stop")
        log.append(("killer", sim.now))

    for tag in ("t1", "t2"):
        sim.process(racer(tag, 1.0))
    for i in range(3):
        sim.process(waiter(i))
    sim.process(late_waiter())
    sim.process(trigger())
    sim.process(composite())
    sim.process(killer())
    sim.run()
    return log


class TestFastKernelEquivalence:
    def test_fast_and_compat_event_logs_identical(self):
        fast = _mixed_scenario(Simulator())
        compat = _mixed_scenario(Simulator(compat=True))
        assert fast == compat

    def test_compat_mode_never_uses_fast_paths(self):
        sim = Simulator(compat=True)
        _mixed_scenario(sim)
        counters = sim.counters()
        assert counters["nowq_entries"] == 0
        assert counters["pool_reuses"] == 0
        assert counters["heap_pushes"] == counters["heap_pops"]

    def test_fast_mode_routes_zero_delay_through_now_queue(self):
        sim = Simulator()
        _mixed_scenario(sim)
        counters = sim.counters()
        assert counters["nowq_entries"] > 0
        assert counters["heap_pushes"] < counters["events_allocated"] + 1
        assert counters["pool_reuses"] > 0


class TestEventPool:
    def test_unreferenced_event_is_recycled_and_reused(self):
        """Guards the ``_POOLED_REFS`` refcount constant: a processed
        event nobody holds must land in the pool and come back from the
        factory as the *same object*."""
        sim = Simulator()
        ev = sim.event()

        def waiter(event):
            yield event

        sim.process(waiter(ev))
        ev.succeed(1)
        del ev  # drop the test's reference so only the kernel holds it
        sim.run()
        assert sim._pool_event
        recycled = sim._pool_event[-1]
        fresh = sim.event()
        assert fresh is recycled
        assert fresh.triggered is False
        assert sim.counters()["pool_reuses"] >= 1

    def test_retained_event_is_not_recycled(self):
        sim = Simulator()
        ev = sim.event()

        def waiter(event):
            got = yield event
            return got

        p = sim.process(waiter(ev))
        ev.succeed("kept")
        sim.run()
        # The test still references ``ev``, so pooling it would corrupt
        # a live handle; the refcount guard must leave it alone.
        assert ev not in sim._pool_event
        assert ev.value == "kept"
        assert p.value == "kept"

    def test_pooled_timeout_still_validates_delay(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)  # must raise even on the pool-hit path

    def test_reset_zeroes_counters(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.counters()["events_allocated"] > 0
        sim.reset()
        assert all(v == 0 for v in sim.counters().values())
