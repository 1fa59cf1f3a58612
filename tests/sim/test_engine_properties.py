"""Property-based tests of the discrete-event kernel's guarantees."""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Resource


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
def test_events_fire_in_timestamp_order(delays):
    """Property: completion order is sorted by (time, spawn order)."""
    engine = Engine()
    fired = []

    def proc(index, delay):
        yield engine.timeout(delay)
        fired.append((engine.now, index))

    for index, delay in enumerate(delays):
        engine.process(proc(index, delay))
    engine.run()

    times = [t for t, _ in fired]
    assert times == sorted(times)
    # Ties resolve by spawn order.
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert [i for _, i in fired] == expected


@given(
    st.lists(st.tuples(st.integers(0, 100), st.integers(1, 100)), min_size=1,
             max_size=30),
    st.integers(1, 4),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(jobs, capacity):
    """Property: the busy count never exceeds capacity, and all jobs run."""
    engine = Engine()
    resource = Resource(engine, capacity=capacity)
    finished = []

    def worker(index, start, hold):
        yield engine.timeout(start)
        claim = resource.acquire()
        yield claim
        yield engine.timeout(hold)
        resource.release(claim)
        finished.append(index)

    for index, (start, hold) in enumerate(jobs):
        engine.process(worker(index, start, hold))
    engine.run()

    assert sorted(finished) == list(range(len(jobs)))
    busy_values = [v for _, v in resource.busy_series.changes()]
    assert max(busy_values) <= capacity
    assert resource.in_use == 0


@given(
    st.lists(st.tuples(st.integers(0, 200), st.integers(1, 50)), min_size=1,
             max_size=25)
)
@settings(max_examples=50, deadline=None)
def test_resource_conservation(jobs):
    """Property: total busy time equals the sum of hold times."""
    engine = Engine()
    resource = Resource(engine, capacity=1)

    def worker(start, hold):
        yield engine.timeout(start)
        claim = resource.acquire()
        yield claim
        yield engine.timeout(hold)
        resource.release(claim)

    for start, hold in jobs:
        engine.process(worker(start, hold))
    engine.run()
    horizon = engine.now + 1
    busy = resource.busy_series.integral(0, horizon)
    assert busy == sum(hold for _, hold in jobs)
