"""The serve daemon's event stream.

One :class:`EventBroker` fans daemon events out to any number of SSE
subscribers.  Events are plain data (:class:`ServeEvent`), rendered to
the ``text/event-stream`` wire format by :func:`ServeEvent.to_sse`;
the broker also keeps a bounded history ring so tests (and late
subscribers asking ``/events?replay=1``) can observe events emitted
before they attached.

Event types (the SSE ``event:`` field):

* ``heartbeat``     — one per ingest cycle: rows, files, lag.
* ``ingest-error``  — a damaged line or an unparsable file.
* ``floor-breach``  — a diagnosis window exceeded the VLRT floor.
* ``shutdown``      — the daemon is draining (final event).
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import json
from typing import Any

__all__ = ["EventBroker", "ServeEvent"]

HEARTBEAT = "heartbeat"
INGEST_ERROR = "ingest-error"
FLOOR_BREACH = "floor-breach"
SHUTDOWN = "shutdown"


@dataclasses.dataclass(frozen=True, slots=True)
class ServeEvent:
    """One daemon event: a type, a monotonically increasing id, and a
    JSON-serializable payload."""

    event_id: int
    kind: str
    data: dict[str, Any]

    def to_sse(self) -> bytes:
        """The ``text/event-stream`` rendering of this event."""
        payload = json.dumps(self.data, sort_keys=True)
        return (
            f"id: {self.event_id}\nevent: {self.kind}\n"
            f"data: {payload}\n\n"
        ).encode()


class EventBroker:
    """Publish/subscribe hub between the daemon loops and SSE clients.

    ``publish`` is safe to call from worker threads: it enqueues onto
    per-subscriber :class:`asyncio.Queue` objects via
    ``loop.call_soon_threadsafe`` when a loop is attached, and appends
    to the history ring either way.  A slow subscriber never blocks
    the daemon — its queue is unbounded but the connection is closed
    by the HTTP layer when the client goes away.
    """

    def __init__(self, history: int = 256) -> None:
        self._ids = itertools.count(1)
        self._subscribers: list[asyncio.Queue[ServeEvent]] = []
        self._history: collections.deque[ServeEvent] = collections.deque(
            maxlen=history
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Per-kind emission counters (rendered into ``/stats``).
        self.counts: collections.Counter[str] = collections.Counter()

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the asyncio loop that owns the subscriber queues."""
        self._loop = loop

    def publish(self, kind: str, data: dict[str, Any]) -> ServeEvent:
        """Emit one event to history and every live subscriber."""
        event = ServeEvent(event_id=next(self._ids), kind=kind, data=data)
        self._history.append(event)
        self.counts[kind] += 1
        loop = self._loop
        for queue in list(self._subscribers):
            if loop is not None:
                loop.call_soon_threadsafe(queue.put_nowait, event)
            else:
                queue.put_nowait(event)
        return event

    def subscribe(self, replay: bool = False) -> asyncio.Queue[ServeEvent]:
        """A queue receiving every event from now on (history first
        when ``replay``)."""
        queue: asyncio.Queue[ServeEvent] = asyncio.Queue()
        if replay:
            for event in self._history:
                queue.put_nowait(event)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue[ServeEvent]) -> None:
        """Detach a subscriber queue (idempotent)."""
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def history(self, kind: str | None = None) -> list[ServeEvent]:
        """Events still in the ring, optionally filtered by kind."""
        events = list(self._history)
        if kind is not None:
            events = [event for event in events if event.kind == kind]
        return events

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)
