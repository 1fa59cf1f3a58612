"""Vector kernel unit tests: calendar ordering and engine interleaving."""

import random

import pytest

from repro.common.errors import SimulationError
from repro.sim.vector import EventCalendar, VectorEngine


class TestEventCalendar:
    def test_pops_in_time_seq_order(self):
        cal = EventCalendar()
        rng = random.Random(11)
        rows = [(rng.randrange(500), seq, 1, seq) for seq in range(800)]
        for time, seq, code, slot in rows:
            cal.push(time, seq, code, slot)
        popped = []
        while (row := cal.pop_next()) is not None:
            popped.append(row[:2])
        assert popped == sorted((t, s) for t, s, _, _ in rows)
        assert len(cal) == 0

    def test_interleaved_push_and_pop(self):
        cal = EventCalendar()
        cal.push(10, 0, 1, 0)
        cal.push(20, 1, 1, 1)
        assert cal.pop_next()[:2] == (10, 0)
        # A later push with an earlier key must still pop first.
        cal.push(15, 2, 1, 2)
        cal.push(30, 3, 1, 3)
        assert cal.pop_next()[:2] == (15, 2)
        assert cal.pop_next()[:2] == (20, 1)
        assert cal.pop_next()[:2] == (30, 3)
        assert cal.pop_next() is None

    def test_peek_settles_lazily(self):
        cal = EventCalendar()
        cal.push(100, 0, 1, 0)
        assert cal.peek() == (100, 0)
        cal.push(3, 1, 1, 0)
        assert cal.peek() == (3, 1)

    def test_len_counts_all_regions(self):
        cal = EventCalendar()
        cal.push(5, 0, 1, 0)
        cal.push(6, 1, 1, 1)
        assert cal.peek() == (5, 0)  # settles both rows into main
        cal.push(1, 2, 1, 2)
        assert cal.peek() == (1, 2)  # earlier than main: lands in pending
        cal.push(9, 3, 1, 3)
        assert cal.peek() == (1, 2)  # later than every head: stays buffered
        assert len(cal) == 4
        assert [cal.pop_next()[:2] for _ in range(4)] == [
            (1, 2), (5, 0), (6, 1), (9, 3)
        ]
        assert len(cal) == 0


class TestVectorEngine:
    def test_interleaves_rows_and_events_by_global_key(self):
        engine = VectorEngine()
        log = []
        engine.register_channel(1, lambda t, slot: log.append(("row", t, slot)))

        def proc():
            yield engine.timeout(10)
            log.append(("event", engine.now))
            yield engine.timeout(10)
            log.append(("event", engine.now))

        engine.process(proc())
        engine.schedule_row(1, 7, delay=5)
        engine.schedule_row(1, 8, delay=15)
        engine.schedule_row(1, 9, delay=25)
        engine.run()
        assert log == [
            ("row", 5, 7),
            ("event", 10),
            ("row", 15, 8),
            ("event", 20),
            ("row", 25, 9),
        ]

    def test_same_timestamp_ties_break_by_schedule_order(self):
        engine = VectorEngine()
        log = []
        engine.register_channel(1, lambda t, slot: log.append(("row", slot)))

        def proc(tag):
            yield engine.timeout(5)
            log.append(("event", tag))

        engine.process(proc("a"))  # seq 0 (bootstrap), timeout seq at t=0
        engine.schedule_row(1, 1, delay=5)
        engine.process(proc("b"))
        engine.schedule_row(1, 2, delay=5)
        engine.run()
        # Bootstraps fire first (t=0), allocating the t=5 timeouts in
        # process order *after* the rows were scheduled.
        assert log == [("row", 1), ("row", 2), ("event", "a"), ("event", "b")]

    def test_handler_scheduling_immediate_event_runs_before_later_rows(self):
        engine = VectorEngine()
        log = []

        def handler(time, slot):
            log.append(("row", time, slot))
            if slot == 0:
                engine.event().succeed("now")  # same-timestamp heap event
                engine.timeout(0, "zero")

        engine.register_channel(1, handler)
        engine.register_channel(
            2, lambda t, slot: log.append(("late", t, slot))
        )
        engine.schedule_row(1, 0, delay=5)
        engine.schedule_row(2, 1, delay=5)
        engine.run()
        # The same-time row scheduled earlier (smaller seq) fires before
        # the handler-created events, which fire before nothing else.
        assert log == [("row", 5, 0), ("late", 5, 1)]

    def test_run_until_clamps_clock(self):
        engine = VectorEngine()
        engine.register_channel(1, lambda t, slot: None)
        engine.schedule_row(1, 0, delay=10)
        engine.schedule_row(1, 0, delay=500)
        engine.run(until=100)
        assert engine.now == 100
        assert len(engine.calendar) == 1

    def test_duplicate_channel_rejected(self):
        engine = VectorEngine()
        engine.register_channel(1, lambda t, s: None)
        with pytest.raises(SimulationError):
            engine.register_channel(1, lambda t, s: None)

    def test_negative_delay_rejected(self):
        engine = VectorEngine()
        engine.register_channel(1, lambda t, s: None)
        with pytest.raises(SimulationError):
            engine.schedule_row(1, 0, delay=-1)

    def test_rows_and_events_share_the_sequence_counter(self):
        engine = VectorEngine()
        engine.register_channel(1, lambda t, s: None)
        engine.schedule_row(1, 0, delay=1)
        timeout = engine.timeout(1)
        engine.schedule_row(1, 0, delay=1)
        assert engine._sequence == 3
        assert not timeout.processed
