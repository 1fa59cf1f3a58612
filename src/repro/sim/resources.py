"""Shared-resource primitives: multi-server queues and message stores.

:class:`Resource` models a pool of identical servers (worker threads,
CPU cores, a disk's single service channel) with a priority-FIFO wait
queue.  :class:`Store` is an unbounded FIFO of messages with blocking
``get`` — the building block for accept queues and the inter-tier
message bus.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.common.errors import SimulationError
from repro.common.timebase import Micros
from repro.sim.events import Event
from repro.sim.tracking import StepSeries

if TYPE_CHECKING:
    from repro.sim.engine import Engine

__all__ = ["Resource", "Acquire", "Store"]


class Acquire(Event):
    """A pending or granted claim on one server of a :class:`Resource`."""

    __slots__ = ("resource", "priority", "requested_at", "granted_at")

    def __init__(self, resource: "Resource", priority: int) -> None:
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        self.requested_at: Micros = resource.engine._now
        self.granted_at: Micros | None = None

    def wait_time(self) -> Micros:
        """Queueing delay experienced before the claim was granted."""
        if self.granted_at is None:
            raise SimulationError("claim has not been granted yet")
        return self.granted_at - self.requested_at


class Resource:
    """A pool of ``capacity`` identical servers with a priority wait queue.

    Lower ``priority`` values are served first; ties are FIFO.  Busy
    counts and wait-queue lengths are tracked as
    :class:`~repro.sim.tracking.StepSeries` for utilization sampling.

    Examples
    --------
    >>> # inside a process generator:
    >>> # claim = resource.acquire()
    >>> # yield claim
    >>> # ... use the server ...
    >>> # resource.release(claim)
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "busy_series",
        "queue_series",
        "_users",
        "_waiting",
        "_sequence",
    )

    def __init__(self, engine: "Engine", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.busy_series = StepSeries(initial=0)
        self.queue_series = StepSeries(initial=0)
        self._users: set[Acquire] = set()
        self._waiting: list[tuple[int, int, Acquire]] = []
        self._sequence = 0

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of claims waiting for a server."""
        return len(self._waiting)

    def acquire(self, priority: int = 0) -> Acquire:
        """Claim one server; the returned event fires when granted."""
        claim = Acquire(self, priority)
        if len(self._users) < self.capacity:
            self._grant(claim)
        else:
            heapq.heappush(self._waiting, (priority, self._sequence, claim))
            self._sequence += 1
            self.queue_series.record(self.engine._now, len(self._waiting))
        return claim

    def release(self, claim: Acquire) -> None:
        """Return the server held by ``claim`` and admit the next waiter."""
        if claim not in self._users:
            raise SimulationError(f"claim does not hold a server of {self.name!r}")
        self._users.discard(claim)
        now = self.engine._now
        self.busy_series.record(now, len(self._users))
        if self._waiting:
            _, _, next_claim = heapq.heappop(self._waiting)
            self.queue_series.record(now, len(self._waiting))
            self._grant(next_claim)

    def _grant(self, claim: Acquire) -> None:
        self._users.add(claim)
        now = self.engine._now
        claim.granted_at = now
        self.busy_series.record(now, len(self._users))
        claim.succeed(claim)

    def utilization(self, start: Micros, stop: Micros) -> float:
        """Fraction of total server capacity busy over ``[start, stop)``."""
        if stop <= start:
            raise SimulationError(f"utilization window empty: [{start}, {stop})")
        busy = self.busy_series.integral(start, stop)
        return busy / ((stop - start) * self.capacity)


class Store:
    """An unbounded FIFO message queue with blocking ``get``.

    Items put while getters wait are handed over immediately (FIFO on
    both sides); otherwise they buffer.  The buffer length is tracked
    as a :class:`~repro.sim.tracking.StepSeries`.
    """

    __slots__ = ("engine", "name", "_items", "_getters", "length_series")

    def __init__(self, engine: "Engine", name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.length_series = StepSeries(initial=0)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)
        self.length_series.record(self.engine._now, len(self._items))

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.engine)
        if self._items:
            item = self._items.popleft()
            self.length_series.record(self.engine._now, len(self._items))
            event.succeed(item)
        else:
            self._getters.append(event)
        return event
