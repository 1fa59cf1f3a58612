"""The discrete-event engine.

The engine owns the simulation clock (integer microseconds) and the
agenda — a priority queue of triggered events.  Ties at the same
timestamp are broken by insertion order, which keeps runs deterministic.

That is the timeline contract: every agenda entry draws the next
number from one sequence counter, and two runs that draw the same
entries in the same order are the same run, down to the log bytes.
How the entries get drawn is free.  :meth:`Event.succeed
<repro.sim.events.Event.succeed>` and :class:`~repro.sim.events.Timeout`
push onto the agenda inline, and :meth:`Cpu.consume
<repro.ntier.hardware.Cpu.consume>` steps its quanta through callbacks
rather than generator resumes; both keep the order, so neither moves
the timeline.

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

    __slots__ = ("_now", "_agenda", "_sequence", "_running")

    #: Kernel name; the vector kernel overrides this.
    kernel = "scalar"

    def __init__(self) -> None:
        self._now: Micros = 0
        self._agenda: list[tuple[Micros, int, Event]] = []
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
        # One tuple per entry is forced by heapq's API, but the hot
        # path stays free of repeated attribute loads: one read of the
        # agenda and counter, one write back.
        sequence = self._sequence
        self._sequence = sequence + 1
        _heappush(self._agenda, (self._now + delay, sequence, event))

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
        """Timestamp of the next agenda entry, or ``None`` if empty."""
        if not self._agenda:
            return None
        return self._agenda[0][0]

    def step(self) -> None:
        """Process the single next event on the agenda."""
        if not self._agenda:
            raise SimulationError("agenda is empty")
        timestamp, _, event = _heappop(self._agenda)
        if timestamp < self._now:
            raise SimulationError("agenda went backwards in time")
        self._now = timestamp
        event._process()

    def run(self, until: Micros | None = None) -> None:
        """Run until the agenda drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so utilization
        integrals cover the whole requested horizon.
        """
        if self._running:
            raise SimulationError("engine is already running (no reentrant run)")
        self._running = True
        try:
            # Inlined pop loop: peeking and popping through step() costs
            # an extra method call plus double head indexing per event,
            # which is measurable at millions of events (the
            # scalar-kernel micro-bench in test_kernel_throughput.py
            # guards this fast path against regressing to step() rate).
            agenda = self._agenda
            while agenda:
                if until is not None and agenda[0][0] > until:
                    break
                timestamp, _, event = _heappop(agenda)
                self._now = timestamp
                event._process()
            if until is not None:
                if until < self._now:
                    raise SimulationError(
                        f"run(until={until}) is in the past (now={self._now})"
                    )
                self._now = until
        finally:
            self._running = False
