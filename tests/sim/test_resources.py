"""Tests for Resource and Store primitives."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import Resource, Store


def test_resource_capacity_validated():
    with pytest.raises(SimulationError):
        Resource(Engine(), capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    engine = Engine()
    res = Resource(engine, capacity=2)
    held = []

    def worker(name, hold):
        claim = res.acquire()
        yield claim
        held.append((name, engine.now))
        yield engine.timeout(hold)
        res.release(claim)

    engine.process(worker("a", 100))
    engine.process(worker("b", 100))
    engine.process(worker("c", 100))
    engine.run()
    # a and b start at t=0; c waits for a release at t=100.
    assert held == [("a", 0), ("b", 0), ("c", 100)]


def test_resource_fifo_within_priority():
    engine = Engine()
    res = Resource(engine, capacity=1)
    order = []

    def worker(name):
        claim = res.acquire()
        yield claim
        order.append(name)
        yield engine.timeout(10)
        res.release(claim)

    for name in "abcd":
        engine.process(worker(name))
    engine.run()
    assert order == ["a", "b", "c", "d"]


def test_resource_priority_jumps_queue():
    engine = Engine()
    res = Resource(engine, capacity=1)
    order = []

    def worker(name, priority, start):
        yield engine.timeout(start)
        claim = res.acquire(priority=priority)
        yield claim
        order.append(name)
        yield engine.timeout(100)
        res.release(claim)

    engine.process(worker("first", 0, 0))
    engine.process(worker("normal", 5, 10))
    engine.process(worker("urgent", 0, 20))
    engine.run()
    assert order == ["first", "urgent", "normal"]


def test_release_requires_held_claim():
    engine = Engine()
    res = Resource(engine, capacity=1)
    claim = res.acquire()
    res.release(claim)
    with pytest.raises(SimulationError):
        res.release(claim)


def test_wait_time_recorded():
    engine = Engine()
    res = Resource(engine, capacity=1)
    waits = []

    def worker(hold):
        claim = res.acquire()
        yield claim
        waits.append(claim.wait_time())
        yield engine.timeout(hold)
        res.release(claim)

    engine.process(worker(100))
    engine.process(worker(100))
    engine.run()
    assert waits == [0, 100]


def test_utilization_integral():
    engine = Engine()
    res = Resource(engine, capacity=2)

    def worker(hold):
        claim = res.acquire()
        yield claim
        yield engine.timeout(hold)
        res.release(claim)

    engine.process(worker(500))
    engine.run(until=1_000)
    # One of two servers busy for 500 of 1000 us -> 25% utilization.
    assert res.utilization(0, 1_000) == pytest.approx(0.25)


def test_queue_series_tracks_waiting():
    engine = Engine()
    res = Resource(engine, capacity=1)

    def worker(hold):
        claim = res.acquire()
        yield claim
        yield engine.timeout(hold)
        res.release(claim)

    for _ in range(3):
        engine.process(worker(100))
    engine.run()
    assert res.queue_series.value_at(50) == 2
    assert res.queue_series.value_at(150) == 1
    assert res.queue_series.value_at(250) == 0


def test_store_put_then_get():
    engine = Engine()
    store = Store(engine)
    got = []

    def producer():
        yield engine.timeout(10)
        store.put("x")

    def consumer():
        item = yield store.get()
        got.append((engine.now, item))

    engine.process(consumer())
    engine.process(producer())
    engine.run()
    assert got == [(10, "x")]


def test_store_buffers_when_no_getter():
    engine = Engine()
    store = Store(engine)
    store.put("a")
    store.put("b")
    got = []

    def consumer():
        first = yield store.get()
        second = yield store.get()
        got.extend([first, second])

    engine.process(consumer())
    engine.run()
    assert got == ["a", "b"]


def test_store_fifo_across_getters():
    engine = Engine()
    store = Store(engine)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    engine.process(consumer("g1"))
    engine.process(consumer("g2"))

    def producer():
        yield engine.timeout(5)
        store.put(1)
        store.put(2)

    engine.process(producer())
    engine.run()
    assert got == [("g1", 1), ("g2", 2)]


def test_store_length():
    engine = Engine()
    store = Store(engine)
    store.put("a")
    store.put("b")
    assert len(store) == 2
