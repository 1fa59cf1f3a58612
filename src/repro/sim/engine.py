"""The discrete-event engine.

The engine owns the simulation clock (integer microseconds) and the
agenda of triggered events.  Ties at the same timestamp are broken by
insertion order, which keeps runs deterministic.

That is the timeline contract: every agenda entry draws the next
number from one sequence counter, and two runs that draw the same
entries in the same order are the same run, down to the log bytes.
How the entries get drawn is free.  :meth:`Event.succeed
<repro.sim.events.Event.succeed>` and :class:`~repro.sim.events.Timeout`
push onto the agenda inline, and a :meth:`Cpu.consume
<repro.ntier.hardware.Cpu.consume>` demand or a disk I/O is one event
that puts itself back on the agenda for each step of its chain; both
keep the order, so neither moves the timeline.

The agenda has two parts.  An entry due later goes on a heap keyed
``(time, sequence)``; an entry due *now* (zero delay) goes on the
*lane*, a FIFO that skips the heap.  The run loop takes heap entries
due now first, then the lane, and only then advances the clock.  That
is the same order as one heap: a heap entry due now was pushed at an
earlier clock time, so it drew a smaller sequence number than anything
in the lane, and the lane itself is in draw order.  The rule holds only
if *every* zero-delay push goes to the lane.

``Engine`` is the *scalar* kernel: every occurrence is a Python
:class:`~repro.sim.events.Event` popped one at a time.  The vector
kernel (:class:`repro.sim.vector.VectorEngine`) extends it with a
numpy event calendar for high-volume typed events while reusing this
agenda for everything else; both kernels share the global
``(timestamp, sequence)`` ordering contract, which is what makes their
runs byte-identical.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator

from repro.common.errors import SimulationError
from repro.common.timebase import Micros
from repro.sim.events import Event, Timeout
from repro.sim.process import Process

__all__ = ["Engine"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class Engine:
    """Discrete-event simulation engine.

    Examples
    --------
    >>> engine = Engine()
    >>> def hello():
    ...     yield engine.timeout(1_000)
    ...     return "done"
    >>> proc = engine.process(hello())
    >>> engine.run()
    >>> proc.value
    'done'
    """

    __slots__ = ("_now", "_agenda", "_lane", "_sequence", "_running")

    #: Kernel name; the vector kernel overrides this.
    kernel = "scalar"

    def __init__(self) -> None:
        self._now: Micros = 0
        #: Entries due later, keyed ``(time, sequence)``.
        self._agenda: list[tuple[Micros, int, Event]] = []
        #: Entries due now, in draw order.  Anything with an
        #: ``append(event)`` will do: the vector kernel puts a heap
        #: adapter here.
        self._lane: Any = deque()
        self._sequence = 0
        self._running = False

    @property
    def now(self) -> Micros:
        """Current simulation time in microseconds."""
        return self._now

    def _alloc_seq(self) -> int:
        """Claim the next agenda sequence number (kernel use only).

        Tie-breaking is global across everything the engine orders —
        scalar events *and* (in the vector kernel) calendar rows — so
        every schedulable occurrence must draw from this one counter.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        return sequence

    def _schedule(self, event: Event, delay: Micros = 0) -> None:
        """Place a triggered event on the agenda (kernel use only)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay:
            _heappush(self._agenda, (self._now + delay, sequence, event))
        else:
            self._lane.append(event)

    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: Micros, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    def peek(self) -> Micros | None:
        """Time of the next agenda entry, or ``None`` if none is left.

        While the lane holds entries that is ``now``.
        """
        if self._lane:
            return self._now
        if not self._agenda:
            return None
        return self._agenda[0][0]

    def step(self) -> None:
        """Process the single next entry: a heap entry due now, else the
        head of the lane, else the earliest heap entry."""
        agenda = self._agenda
        if agenda and agenda[0][0] == self._now:
            _heappop(agenda)[2]._process()
        elif self._lane:
            self._lane.popleft()._process()
        elif agenda:
            timestamp, _, event = _heappop(agenda)
            if timestamp < self._now:
                raise SimulationError("agenda went backwards in time")
            self._now = timestamp
            event._process()
        else:
            raise SimulationError("agenda is empty")

    def run(self, until: Micros | None = None) -> None:
        """Run until the agenda drains or the clock reaches ``until``.

        Each instant runs its heap entries, then its lane, and only
        then does the clock move to the next heap entry.  When
        ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so utilization integrals
        cover the whole requested horizon.
        """
        if self._running:
            raise SimulationError("engine is already running (no reentrant run)")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        self._running = True
        try:
            # Inlined pop loops: stepping through step() costs a method
            # call plus its branch tests per event, which is measurable
            # at millions of events (the scalar-kernel micro-bench in
            # test_kernel_throughput.py guards this fast path against
            # regressing to step() rate).
            agenda = self._agenda
            lane = self._lane
            popleft = lane.popleft
            now = self._now
            while True:
                # Heap entries due now were drawn at an earlier clock
                # time, so before anything in the lane; processing
                # them or the lane can only push later heap entries.
                while agenda and agenda[0][0] == now:
                    _heappop(agenda)[2]._process()
                while lane:
                    popleft()._process()
                if not agenda:
                    break
                now = agenda[0][0]
                if until is not None and now > until:
                    break
                self._now = now
            if until is not None:
                self._now = until
        finally:
            self._running = False
