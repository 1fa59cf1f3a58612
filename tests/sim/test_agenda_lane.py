"""The agenda's lane: entries due now skip the heap, in draw order.

Every push draws one sequence number; the run loop must process the
entries in ``(time, sequence)`` order whichever part of the agenda
holds them.  These tests record the key each push draws and check the
processing order against it, under ``run()`` and under ``step()``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout


class Recorder:
    """Pushes tagged entries and logs the order they are processed in."""

    def __init__(self, engine):
        self.engine = engine
        self.drawn = []  # (due time, sequence, name), in draw order
        self.processed = []

    def _push(self, name, delay, trigger, on_fire=None):
        engine = self.engine
        event = Event(engine) if trigger != "timeout" else None
        sequence = engine._sequence
        if trigger == "timeout":
            event = Timeout(engine, delay)
        elif trigger == "succeed":
            event.succeed(delay=delay)
        else:
            event.fail(RuntimeError(name), delay=delay)
        assert engine._sequence == sequence + 1
        self.drawn.append((engine.now + delay, sequence, name))

        def fire(_event):
            self.processed.append(name)
            if on_fire is not None:
                on_fire()

        event.callbacks.append(fire)

    def timeout(self, name, delay, on_fire=None):
        self._push(name, delay, "timeout", on_fire)

    def succeed(self, name, delay=0, on_fire=None):
        self._push(name, delay, "succeed", on_fire)

    def fail(self, name, delay=0, on_fire=None):
        self._push(name, delay, "fail", on_fire)

    def expected(self):
        return [name for _, _, name in sorted(self.drawn)]


def mixed_instant(recorder):
    """At t=100: a heap entry drawn at t=0 and lane entries of every
    kind, some pushed by lane entries themselves."""

    def at_100():
        recorder.timeout("t0", 0, on_fire=lambda: recorder.succeed("from-t0"))
        recorder.succeed("succeed")
        recorder.fail("fail", on_fire=lambda: recorder.timeout("later", 5))
        recorder.timeout("t0-again", 0)

    recorder.timeout("first", 100, on_fire=at_100)
    recorder.timeout("drawn-earlier", 100)
    recorder.succeed("at-0")
    recorder.timeout("after", 101)


def test_run_processes_in_draw_order():
    engine = Engine()
    recorder = Recorder(engine)
    mixed_instant(recorder)
    engine.run()
    assert recorder.processed == recorder.expected()
    assert recorder.processed == [
        "at-0", "first", "drawn-earlier", "t0", "succeed", "fail",
        "t0-again", "from-t0", "after", "later",
    ]


def test_step_processes_in_draw_order_and_peek_sees_the_lane():
    engine = Engine()
    recorder = Recorder(engine)
    mixed_instant(recorder)
    peeks = []
    while (due := engine.peek()) is not None:
        peeks.append((due, bool(engine._lane), engine.now))
        engine.step()
    assert recorder.processed == recorder.expected()
    # While the lane holds entries, the next entry is due now.
    lane_peeks = [(due, now) for due, lane, now in peeks if lane]
    assert lane_peeks and all(due == now for due, now in lane_peeks)


def test_peek_returns_now_while_the_lane_holds_entries():
    engine = Engine()
    engine.timeout(100)
    assert engine.peek() == 100
    engine.event().succeed()
    assert engine.peek() == 0
    engine.step()
    assert engine.peek() == 100


def test_step_takes_a_heap_entry_due_now_before_the_lane():
    engine = Engine()
    recorder = Recorder(engine)
    recorder.timeout("a", 10)
    recorder.timeout("b", 10)
    engine.step()  # "a": now 10, "b" still on the heap and due now
    recorder.succeed("lane")
    engine.step()
    engine.step()
    assert recorder.processed == ["a", "b", "lane"]


def test_run_until_drains_the_lane_of_the_last_instant():
    engine = Engine()
    recorder = Recorder(engine)
    recorder.timeout("edge", 50, on_fire=lambda: recorder.succeed("lane"))
    recorder.timeout("beyond", 51)
    engine.run(until=50)
    assert recorder.processed == ["edge", "lane"]
    assert engine.now == 50 and engine.peek() == 51


def test_run_until_in_the_past_raises_before_processing():
    engine = Engine()
    engine.timeout(10)
    engine.run()
    recorder = Recorder(engine)
    recorder.succeed("lane")
    with pytest.raises(Exception, match="in the past"):
        engine.run(until=5)
    assert recorder.processed == []


#: A fan-out script: each processed entry pushes the next list of
#: (trigger, delay) children, zero delays weighted so the lane is busy.
CHILDREN = st.lists(
    st.tuples(
        st.sampled_from(["timeout", "succeed", "fail"]),
        st.sampled_from([0, 0, 0, 1, 3]),
    ),
    max_size=3,
)


@given(
    roots=st.lists(st.integers(0, 4), min_size=1, max_size=5),
    script=st.lists(CHILDREN, max_size=40),
    use_step=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_processing_order_is_draw_order(roots, script, use_step):
    """Property: whatever mix of heap and lane pushes the entries make,
    they are processed in ``(time, sequence)`` order, which is the
    order one heap of every entry would give."""
    engine = Engine()
    recorder = Recorder(engine)
    plan = iter(script)
    counter = iter(range(10_000))

    def spawn():
        for trigger, delay in next(plan, []):
            name = next(counter)
            getattr(recorder, trigger)(name, delay, on_fire=spawn)

    for delay in roots:
        recorder.timeout(next(counter), delay, on_fire=spawn)
    if use_step:
        while engine.peek() is not None:
            engine.step()
    else:
        engine.run()
    assert recorder.processed == recorder.expected()
