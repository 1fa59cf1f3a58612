"""The vector kernel: an event calendar of typed numpy rows.

The scalar :class:`~repro.sim.engine.Engine` pays Python-object prices
per occurrence — a :class:`~repro.sim.events.Event`, a heap tuple, a
generator resume.  This module holds the alternative substrate behind
``SystemConfig(kernel="vector")``:

* :class:`EventCalendar` — the agenda as a numpy structured array
  (``time``, ``seq``, ``code``, ``slot``), pushed one row at a time and
  popped in key order.  Global ordering is the same
  ``(timestamp, sequence)`` contract the scalar agenda uses, so the two
  kernels interleave identically.
* :class:`VectorEngine` — an :class:`~repro.sim.engine.Engine` whose
  agenda is the classic heap *plus* a calendar of typed rows.  Scalar
  components (tier servers, faults, monitors) run unchanged; vector
  components (the flat client) schedule calendar rows instead of
  allocating ``Timeout``/``Process`` objects.  Sequence numbers come
  from the engine's one counter, which is what makes a
  ``kernel="vector"`` run dump-identical to ``kernel="scalar"``.

The timeline pins (``tests/sim/test_timeline_identity.py``) hold both
kernels to the same log bytes and agenda-entry count on every fault
scenario.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.common.errors import SimulationError
from repro.common.timebase import Micros
from repro.sim.engine import Engine

__all__ = [
    "EVENT_DTYPE",
    "EventCalendar",
    "VectorEngine",
]

#: One calendar row: fire time, global tie-break sequence, the typed
#: channel the row belongs to, and a channel-defined payload slot
#: (for the flat client: the user index).
EVENT_DTYPE = np.dtype(
    [("time", np.int64), ("seq", np.int64), ("code", np.int32), ("slot", np.int64)]
)

_EMPTY = np.empty(0, dtype=EVENT_DTYPE)

#: A key greater than every real ``(time, seq)`` agenda key.
FAR_FUTURE = (np.iinfo(np.int64).max, np.iinfo(np.int64).max)


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Rows ordered by the global agenda key ``(time, seq)``."""
    order = np.lexsort((rows["seq"], rows["time"]))
    return rows[order]


class EventCalendar:
    """A sorted numpy agenda with lazy merging of pushed rows.

    Three regions hold the pending rows:

    * ``main`` — a sorted structured array consumed through a cursor;
    * ``pending`` — a smaller sorted array of recently settled pushes
      (merging here keeps each settle cheap while ``main`` is large);
    * an unsorted push ``buffer`` (plain Python lists) whose minimum
      key is tracked incrementally, so pops only pay for sorting when
      the clock actually reaches buffered work.
    """

    __slots__ = (
        "_main",
        "_mi",
        "_pending",
        "_pi",
        "_buf_time",
        "_buf_seq",
        "_buf_code",
        "_buf_slot",
        "_buf_min",
    )

    def __init__(self) -> None:
        self._main = _EMPTY
        self._mi = 0
        self._pending = _EMPTY
        self._pi = 0
        self._buf_time: list[int] = []
        self._buf_seq: list[int] = []
        self._buf_code: list[int] = []
        self._buf_slot: list[int] = []
        self._buf_min = FAR_FUTURE

    def __len__(self) -> int:
        return (
            (len(self._main) - self._mi)
            + (len(self._pending) - self._pi)
            + len(self._buf_time)
        )

    # ------------------------------------------------------------------
    # pushes

    def push(self, time: int, seq: int, code: int, slot: int) -> None:
        """Schedule one row (buffered; sorted lazily on demand)."""
        self._buf_time.append(time)
        self._buf_seq.append(seq)
        self._buf_code.append(code)
        self._buf_slot.append(slot)
        if (time, seq) < self._buf_min:
            self._buf_min = (time, seq)

    # ------------------------------------------------------------------
    # internal settling

    def _settle_buffer(self) -> None:
        """Sort the push buffer and merge it into ``pending``."""
        if not self._buf_time:
            return
        block = np.empty(len(self._buf_time), dtype=EVENT_DTYPE)
        block["time"] = self._buf_time
        block["seq"] = self._buf_seq
        block["code"] = self._buf_code
        block["slot"] = self._buf_slot
        self._buf_time.clear()
        self._buf_seq.clear()
        self._buf_code.clear()
        self._buf_slot.clear()
        self._buf_min = FAR_FUTURE
        self._merge_pending(_sort_rows(block))

    def _merge_pending(self, block: np.ndarray) -> None:
        pending = self._pending[self._pi :]
        self._pi = 0
        if len(pending):
            block = _sort_rows(np.concatenate((pending, block)))
        remaining_main = len(self._main) - self._mi
        if remaining_main == 0:
            # Once main is drained, the settled block becomes the new
            # main run with no re-sort.
            self._main = block
            self._mi = 0
            self._pending = _EMPTY
            return
        self._pending = block
        # Once the recent-push region outgrows what is left of main,
        # fold everything into one sorted run so pops stay two-way.
        if len(self._pending) > max(64, remaining_main):
            self._compact()

    def _compact(self) -> None:
        main = self._main[self._mi :]
        pending = self._pending[self._pi :]
        self._main = _sort_rows(np.concatenate((main, pending)))
        self._mi = 0
        self._pending = _EMPTY
        self._pi = 0

    # ------------------------------------------------------------------
    # pops

    def _head_key(self, region: np.ndarray, cursor: int) -> tuple[int, int]:
        if cursor >= len(region):
            return FAR_FUTURE
        row = region[cursor]
        return (int(row["time"]), int(row["seq"]))

    def peek(self) -> "tuple[int, int] | None":
        """Smallest ``(time, seq)`` key, or ``None`` when empty."""
        best = min(self._head_key(self._main, self._mi),
                   self._head_key(self._pending, self._pi))
        if self._buf_min < best:
            self._settle_buffer()
            best = min(self._head_key(self._main, self._mi),
                       self._head_key(self._pending, self._pi))
        if best == FAR_FUTURE:
            return None
        return best

    def pop_next(self) -> "tuple[int, int, int, int] | None":
        """Pop the single earliest row as ``(time, seq, code, slot)``."""
        if self.peek() is None:
            return None
        main_key = self._head_key(self._main, self._mi)
        pending_key = self._head_key(self._pending, self._pi)
        if main_key <= pending_key:
            row = self._main[self._mi]
            self._mi += 1
        else:
            row = self._pending[self._pi]
            self._pi += 1
        return (int(row["time"]), int(row["seq"]), int(row["code"]), int(row["slot"]))


class _HeapLane:
    """The vector kernel's lane: a zero-delay push goes onto the heap
    under the key it drew, so the run loop's ``(time, seq)`` merge with
    the calendar sees it.  Always empty as a lane."""

    __slots__ = ("engine",)

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def __len__(self) -> int:
        return 0

    def append(self, event) -> None:
        # The pusher has just drawn its sequence number.
        engine = self.engine
        heapq.heappush(engine._agenda, (engine._now, engine._sequence - 1, event))


class VectorEngine(Engine):
    """An engine whose agenda is the scalar heap plus an event calendar.

    Vector-aware components register a *channel* (an integer code and a
    ``handler(time, slot)``) and schedule rows through
    :meth:`schedule_row`; everything else uses the inherited scalar
    machinery untouched.  The run loop interleaves heap events and
    calendar rows by their global ``(time, seq)`` key, so determinism
    — and therefore monitor-log identity with a scalar run — holds by
    construction rather than by test luck.
    """

    __slots__ = ("calendar", "_handlers")

    #: Kernel name, mirrored into :class:`SystemConfig.kernel` checks.
    kernel = "vector"

    def __init__(self) -> None:
        super().__init__()
        self._lane = _HeapLane(self)
        self.calendar = EventCalendar()
        self._handlers: dict[int, object] = {}

    def register_channel(self, code: int, handler) -> None:
        """Bind ``handler(time, slot)`` to calendar rows of ``code``."""
        if code in self._handlers:
            raise SimulationError(f"calendar channel {code} already registered")
        self._handlers[int(code)] = handler

    def schedule_row(self, code: int, slot: int, delay: Micros = 0) -> None:
        """Schedule one typed calendar row ``delay`` µs from now.

        Draws from the same sequence counter as scalar events, so a
        row occupies exactly the agenda position the equivalent
        ``Timeout`` would have.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        self.calendar.push(self._now + delay, self._alloc_seq(), code, slot)

    def run(self, until: Micros | None = None) -> None:
        """Run heap events and calendar rows in global key order."""
        if self._running:
            raise SimulationError("engine is already running (no reentrant run)")
        self._running = True
        try:
            agenda = self._agenda
            calendar = self.calendar
            handlers = self._handlers
            heappop = heapq.heappop
            while True:
                cal_key = calendar.peek()
                heap_key = (agenda[0][0], agenda[0][1]) if agenda else None
                if cal_key is None and heap_key is None:
                    break
                # A handler may schedule new heap events at the current
                # timestamp, so rows are popped one at a time with the
                # heap head re-checked in between.
                if cal_key is not None and (heap_key is None or cal_key < heap_key):
                    if until is not None and cal_key[0] > until:
                        break
                    time, _seq, code, slot = calendar.pop_next()
                    self._now = time
                    handlers[code](time, slot)
                else:
                    if until is not None and heap_key[0] > until:
                        break
                    timestamp, _, event = heappop(agenda)
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
