"""Shared-resource primitives: multi-server queues and message stores.

:class:`ServerPool` models a pool of identical servers (worker threads,
CPU cores, a disk's single service channel) with a priority-FIFO wait
queue; a :class:`Resource` also keeps its busy count and queue length.
A server goes to a *holder*: any object with a
``_granted(now)`` method, called the instant it gets one.  That is an
:class:`Acquire`, the event a process yields on, or a kernel chain that
puts itself on the agenda, such as a CPU demand or a disk I/O
(:mod:`repro.ntier.hardware`); all of them go through one grant path.
:class:`Store` is an unbounded FIFO of messages with blocking ``get`` —
the building block for accept queues and the inter-tier message bus.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Protocol

from repro.common.errors import SimulationError
from repro.common.timebase import Micros
from repro.sim.events import Event
from repro.sim.tracking import StepSeries

if TYPE_CHECKING:
    from repro.sim.engine import Engine

__all__ = ["ServerPool", "Resource", "Acquire", "Store"]


class _Holder(Protocol):
    """Anything that can hold a server: it is told when it gets one."""

    def _granted(self, now: Micros) -> None: ...


class Acquire(Event):
    """A pending or granted claim on one server of a :class:`ServerPool`."""

    __slots__ = ("resource", "priority", "requested_at", "granted_at")

    def __init__(self, resource: "ServerPool", priority: int) -> None:
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        self.requested_at: Micros = resource.engine._now
        self.granted_at: Micros | None = None

    def _granted(self, now: Micros) -> None:
        self.granted_at = now
        self.succeed(self)

    def wait_time(self) -> Micros:
        """Queueing delay experienced before the claim was granted."""
        if self.granted_at is None:
            raise SimulationError("claim has not been granted yet")
        return self.granted_at - self.requested_at


class ServerPool:
    """A pool of ``capacity`` identical servers with a priority wait queue.

    Lower ``priority`` values are served first; ties are FIFO.  The pool
    keeps no history: a CPU's cores are one, because the CPU accounts
    its time per category instead (:class:`repro.ntier.hardware.Cpu`).

    Examples
    --------
    >>> # inside a process generator:
    >>> # claim = pool.acquire()
    >>> # yield claim
    >>> # ... use the server ...
    >>> # pool.release(claim)
    """

    __slots__ = ("engine", "capacity", "name", "_users", "_waiting", "_sequence")

    def __init__(self, engine: "Engine", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: set[_Holder] = set()
        self._waiting: list[tuple[int, int, _Holder]] = []
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
        self._request(claim, priority)
        return claim

    def _request(self, holder: _Holder, priority: int) -> None:
        """Grant ``holder`` a server now, or queue it (kernel use only)."""
        if len(self._users) < self.capacity:
            self._grant(holder)
        else:
            heapq.heappush(self._waiting, (priority, self._sequence, holder))
            self._sequence += 1

    def release(self, holder: _Holder) -> None:
        """Return the server ``holder`` has and admit the next waiter."""
        users = self._users
        if holder not in users:
            raise SimulationError(f"claim does not hold a server of {self.name!r}")
        users.discard(holder)
        if self._waiting:
            self._grant(heapq.heappop(self._waiting)[2])

    def _grant(self, holder: _Holder) -> None:
        self._users.add(holder)
        holder._granted(self.engine._now)


class Resource(ServerPool):
    """A :class:`ServerPool` that tracks its busy count and wait-queue
    length as :class:`~repro.sim.tracking.StepSeries`: disks and worker
    pools, whose histories monitors read over each sampling window."""

    __slots__ = ("busy_series", "queue_series")

    def __init__(self, engine: "Engine", capacity: int, name: str = "resource") -> None:
        super().__init__(engine, capacity, name)
        self.busy_series = StepSeries(initial=0)
        self.queue_series = StepSeries(initial=0)

    def _request(self, holder: _Holder, priority: int) -> None:
        super()._request(holder, priority)
        if holder not in self._users:
            self.queue_series.record(self.engine._now, len(self._waiting))

    def release(self, holder: _Holder) -> None:
        waited = bool(self._waiting)
        super().release(holder)
        now = self.engine._now
        self.busy_series.record(now, len(self._users))
        if waited:
            self.queue_series.record(now, len(self._waiting))

    def _grant(self, holder: _Holder) -> None:
        super()._grant(holder)
        self.busy_series.record(self.engine._now, len(self._users))

    def utilization(self, start: Micros, stop: Micros) -> float:
        """Fraction of total server capacity busy over ``[start, stop)``."""
        if stop <= start:
            raise SimulationError(f"utilization window empty: [{start}, {stop})")
        busy = self.busy_series.integral(start, stop)
        return busy / ((stop - start) * self.capacity)


class Store:
    """An unbounded FIFO message queue with blocking ``get``.

    Items put while getters wait are handed over immediately (FIFO on
    both sides); otherwise they buffer.
    """

    __slots__ = ("engine", "name", "_items", "_getters")

    def __init__(self, engine: "Engine", name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

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

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
