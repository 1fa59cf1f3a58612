"""Discrete-event simulation kernel: engine, processes, resources, tracking."""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, EventState, Timeout
from repro.sim.process import Process
from repro.sim.resources import Acquire, Resource, Store
from repro.sim.tracking import StepSeries
from repro.sim.vector import EventCalendar, VectorEngine

__all__ = [
    "Acquire",
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "EventCalendar",
    "EventState",
    "Process",
    "Resource",
    "StepSeries",
    "Store",
    "VectorEngine",
]
