"""Core event types for the discrete-event kernel.

The kernel follows the classic event-scheduling design: an
:class:`Event` carries a value (or an exception), a list of callbacks,
and a three-state lifecycle — *pending* → *triggered* (scheduled on the
engine's agenda) → *processed* (callbacks ran).  Processes (see
:mod:`repro.sim.process`) suspend by yielding events and are resumed by
the engine when those events are processed.

Triggering an event pushes one ``(time, sequence, event)`` entry onto
the agenda.  The order in which entries draw sequence numbers *is* the
timeline: code that allocates the same entries in the same order
simulates the same run, however many callbacks or generator resumes it
takes to get there.  The hot paths here (:meth:`Event.succeed`,
:class:`Timeout`) therefore push onto the agenda inline, and
:meth:`Event._complete` lets a callback chain finish an event at the
current instant without an agenda entry of its own.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import SimulationError
from repro.common.timebase import Micros

if TYPE_CHECKING:
    from repro.sim.engine import Engine

__all__ = ["Event", "Timeout", "AllOf", "AnyOf", "EventState"]


class EventState(enum.Enum):
    """Lifecycle states of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


# Module constants: a global load is cheaper than an enum class lookup
# on every state check.
_PENDING = EventState.PENDING
_TRIGGERED = EventState.TRIGGERED
_PROCESSED = EventState.PROCESSED


class Event:
    """An occurrence that processes can wait on.

    Events succeed (with an optional value) or fail (with an exception).
    A failed event that nobody waits on raises :class:`SimulationError`
    when processed, unless it has been :meth:`defused <defuse>` — errors
    must never pass silently.
    """

    __slots__ = ("engine", "callbacks", "_value", "_exception", "_state", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._state = _PENDING
        self._defused = False

    @property
    def state(self) -> EventState:
        """Current lifecycle state."""
        return self._state

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (or already processed)."""
        return self._state is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have run."""
        return self._state is _PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (valid only once triggered)."""
        if self._state is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The success value (or raises the failure exception)."""
        if self._state is _PENDING:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, if the event failed."""
        return self._exception

    def succeed(self, value: Any = None, delay: Micros = 0) -> "Event":
        """Mark the event successful and schedule its processing."""
        # The hottest call in the kernel, so the pending check, and
        # Engine._schedule's delay check and agenda push, are inline.
        if self._state is not _PENDING:
            self._require_pending()
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        self._value = value
        self._state = _TRIGGERED
        engine = self.engine
        sequence = engine._sequence
        engine._sequence = sequence + 1
        heappush(engine._agenda, (engine._now + delay, sequence, self))
        return self

    def fail(self, exception: BaseException, delay: Micros = 0) -> "Event":
        """Mark the event failed and schedule its processing."""
        self._require_pending()
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._exception = exception
        self._state = _TRIGGERED
        self.engine._schedule(self, delay)
        return self

    def defuse(self) -> "Event":
        """Permit this event to fail without a waiter (suppresses the raise)."""
        self._defused = True
        return self

    def _require_pending(self) -> None:
        if self._state is not _PENDING:
            raise SimulationError(f"event already {self._state.value}")

    def _complete(self, exception: BaseException | None = None) -> None:
        """Succeed (or fail) and run the callbacks now (kernel use only).

        For a callback chain that ends at the instant the event is
        due: the waiters resume inline, exactly where a generator that
        ran the same steps would have carried on, and no agenda entry
        is drawn.
        """
        self._require_pending()
        self._exception = exception
        self._process()

    def _process(self) -> None:
        """Run callbacks; called by the engine at the scheduled time."""
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused and not callbacks:
            raise self._exception


class Timeout(Event):
    """An event that succeeds after a fixed delay.

    Parameters
    ----------
    engine:
        The owning engine.
    delay:
        Delay in microseconds; must be non-negative.
    value:
        Value delivered to the waiter when the timeout fires.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: Micros, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Born triggered: fill every slot and push onto the agenda here
        # rather than through Event.__init__ and succeed().
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        sequence = engine._sequence
        engine._sequence = sequence + 1
        heappush(engine._agenda, (engine._now + delay, sequence, self))


class _Condition(Event):
    """Base for events composed of several child events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: list[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event succeeds; fails on the first failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self._events])


class AnyOf(_Condition):
    """Succeeds when the first child succeeds; fails if the first is a failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self.succeed(event.value)
