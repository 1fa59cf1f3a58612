"""Tests for the discrete-event engine and process semantics."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, EventState


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_timeout_advances_clock():
    engine = Engine()
    fired = []

    def proc():
        yield engine.timeout(1_500)
        fired.append(engine.now)

    engine.process(proc())
    engine.run()
    assert fired == [1_500]


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-1)


def test_process_return_value():
    engine = Engine()

    def proc():
        yield engine.timeout(10)
        return 42

    p = engine.process(proc())
    engine.run()
    assert p.value == 42


def test_processes_interleave_in_time_order():
    engine = Engine()
    order = []

    def proc(name, delay):
        yield engine.timeout(delay)
        order.append((name, engine.now))

    engine.process(proc("slow", 300))
    engine.process(proc("fast", 100))
    engine.process(proc("mid", 200))
    engine.run()
    assert order == [("fast", 100), ("mid", 200), ("slow", 300)]


def test_same_time_events_fifo():
    engine = Engine()
    order = []

    def proc(name):
        yield engine.timeout(50)
        order.append(name)

    for name in "abc":
        engine.process(proc(name))
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_and_advances_clock():
    engine = Engine()

    def proc():
        for _ in range(10):
            yield engine.timeout(1_000)

    engine.process(proc())
    engine.run(until=3_500)
    assert engine.now == 3_500
    engine.run()
    assert engine.now == 10_000


def test_run_until_in_past_rejected():
    engine = Engine()

    def proc():
        yield engine.timeout(5_000)

    engine.process(proc())
    engine.run()
    with pytest.raises(SimulationError):
        engine.run(until=1_000)


def test_process_waits_on_another_process():
    engine = Engine()

    def child():
        yield engine.timeout(100)
        return "payload"

    def parent():
        result = yield engine.process(child())
        return (engine.now, result)

    p = engine.process(parent())
    engine.run()
    assert p.value == (100, "payload")


def test_waiting_on_already_finished_process():
    engine = Engine()

    def child():
        yield engine.timeout(10)
        return "early"

    child_proc = engine.process(child())

    def parent():
        yield engine.timeout(500)
        result = yield child_proc
        return result

    p = engine.process(parent())
    engine.run()
    assert p.value == "early"
    assert engine.now == 500


def test_exception_propagates_to_waiter():
    engine = Engine()

    def child():
        yield engine.timeout(10)
        raise ValueError("boom")

    def parent():
        try:
            yield engine.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    p = engine.process(parent())
    engine.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_raises_at_run():
    engine = Engine()

    def proc():
        yield engine.timeout(10)
        raise RuntimeError("unhandled")

    engine.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        engine.run()


def test_yielding_non_event_fails_process():
    engine = Engine()

    def proc():
        yield 123

    p = engine.process(proc())
    p.defuse()
    engine.run()
    assert p.state is EventState.PROCESSED
    assert not p.ok


def test_allof_collects_values():
    engine = Engine()

    def proc():
        events = [engine.timeout(d, value=d) for d in (30, 10, 20)]
        values = yield AllOf(engine, events)
        return (engine.now, values)

    p = engine.process(proc())
    engine.run()
    assert p.value == (30, [30, 10, 20])


def test_anyof_returns_first():
    engine = Engine()

    def proc():
        events = [engine.timeout(d, value=d) for d in (300, 100, 200)]
        value = yield AnyOf(engine, events)
        return (engine.now, value)

    p = engine.process(proc())
    engine.run()
    assert p.value == (100, 100)


def test_allof_empty_succeeds_immediately():
    engine = Engine()

    def proc():
        values = yield AllOf(engine, [])
        return values

    p = engine.process(proc())
    engine.run()
    assert p.value == []


def test_event_double_trigger_rejected():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_manual_event_wakeup():
    engine = Engine()
    gate = engine.event()
    log = []

    def waiter():
        value = yield gate
        log.append((engine.now, value))

    def opener():
        yield engine.timeout(250)
        gate.succeed("open")

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    assert log == [(250, "open")]


def test_allof_fails_fast_on_child_failure():
    engine = Engine()

    def failing():
        yield engine.timeout(10)
        raise ValueError("child died")

    def waiter():
        events = [engine.process(failing()), engine.timeout(1_000)]
        try:
            yield AllOf(engine, events)
        except ValueError as exc:
            return f"caught at {engine.now}: {exc}"

    p = engine.process(waiter())
    engine.run()
    # AllOf fails as soon as the child fails, not at the slow timeout.
    assert p.value == "caught at 10: child died"


def test_anyof_failure_propagates():
    engine = Engine()

    def failing():
        yield engine.timeout(5)
        raise RuntimeError("first to finish, and it failed")

    def waiter():
        try:
            yield AnyOf(engine, [engine.process(failing()), engine.timeout(500)])
        except RuntimeError:
            return "caught"

    p = engine.process(waiter())
    engine.run()
    assert p.value == "caught"


def test_defused_failure_is_silent():
    engine = Engine()
    event = engine.event()
    event.defuse()
    event.fail(ValueError("nobody cares"))
    engine.run()  # must not raise
