"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields events; the
process suspends until each yielded event is processed, then resumes
with the event's value (or has the event's exception thrown into it).
A process is itself an event: other processes can wait for it to finish
and receive its return value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.common.errors import SimulationError
from repro.sim.events import _PROCESSED, Event

if TYPE_CHECKING:
    from repro.sim.engine import Engine

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    engine:
        The owning engine.
    generator:
        A generator that yields :class:`~repro.sim.events.Event`
        instances.  Its ``return`` value becomes the process's value.
    """

    __slots__ = ("_generator",)

    def __init__(self, engine: "Engine", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(engine)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self._generator = generator
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        # Read the outcome slots directly: the ok/value properties
        # re-check a state that is always processed here.
        exception = event._exception
        try:
            if exception is None:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process yielded {type(target).__name__}, expected Event"
                )
            )
            return
        if target.engine is not self.engine:
            self.fail(SimulationError("process yielded an event from another engine"))
            return

        if target._state is _PROCESSED:
            # The event already ran its callbacks; resume on a fresh
            # zero-delay event carrying the same outcome so ordering
            # stays strictly agenda-driven.
            relay = Event(self.engine)
            relay.callbacks.append(self._resume)
            if target._exception is None:
                relay.succeed(target._value)
            else:
                relay.fail(target._exception)
        else:
            target.callbacks.append(self._resume)
