"""Hardware resource models for component-server nodes.

Each simulated node owns a :class:`Cpu` (a pool of cores with
per-category time accounting), a :class:`Disk` (a single service
channel with bandwidth and seek latency), and a :class:`PageCache`
(dirty-byte tracking feeding the dirty-page-flush fault model).

Accounting is deliberately explicit: the resource mScopeMonitors read
these counters exactly the way SAR or IOstat read ``/proc`` — as
cumulative totals differenced over a sampling window.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from heapq import heappush

from repro.common.errors import SimulationError
from repro.common.timebase import Micros, US_PER_SEC, ms
from repro.sim.engine import Engine
from repro.sim.events import _PENDING, Event, Timeout
from repro.sim.resources import Resource, ServerPool
from repro.sim.tracking import StepSeries

__all__ = ["CumulativeCounter", "Cpu", "Disk", "PageCache", "CPU_CATEGORIES"]

#: CPU time categories, matching what SAR reports.  The paper's Fig 10
#: aggregates user + system + iowait; ``steal`` exists for the VM
#: consolidation root cause the paper cites (its ref [5]).
CPU_CATEGORIES = ("user", "system", "iowait", "steal")
_BUSY_CATEGORIES = ("user", "system", "steal")


class CumulativeCounter:
    """A monotone cumulative counter readable over windows.

    Mirrors ``/proc`` semantics: monitors sample the running total and
    difference consecutive samples.  Change times and running totals
    are packed int64/double arrays, 16 B per change; a total is a float
    sum seeded from ``0.0``, so the double array stores it exactly.
    """

    __slots__ = ("_times", "_totals")

    def __init__(self) -> None:
        self._times = array("q", [0])
        self._totals = array("d", [0.0])

    def add(self, time: Micros, amount: float) -> None:
        """Add ``amount`` to the counter at ``time``."""
        if amount < 0:
            raise SimulationError(f"counter decrement not allowed: {amount}")
        times = self._times
        last = times[-1]
        if time > last:
            times.append(time)
            self._totals.append(self._totals[-1] + amount)
        elif time == last:
            self._totals[-1] += amount
        else:
            raise SimulationError(f"counter add out of order: {time} < {last}")

    @property
    def total(self) -> float:
        """The current running total."""
        return self._totals[-1]

    def total_at(self, time: Micros) -> float:
        """The running total as of ``time``."""
        index = bisect_right(self._times, time) - 1
        if index < 0:
            return 0.0
        return self._totals[index]

    def between(self, start: Micros, stop: Micros) -> float:
        """Amount accumulated in ``(start, stop]``."""
        if stop < start:
            raise SimulationError(f"counter window reversed: ({start}, {stop}]")
        return self.total_at(stop) - self.total_at(start)


class Cpu:
    """A pool of identical cores with per-category time accounting.

    Work is consumed in quanta so that a kernel-priority burst (e.g.
    the dirty-page flusher) interleaves with request processing at
    millisecond granularity instead of blocking a core for the whole
    burst.  The accounting is the one record of CPU time: the cores are
    a :class:`~repro.sim.resources.ServerPool`, which keeps no history.

    Parameters
    ----------
    engine:
        The simulation engine.
    cores:
        Number of cores.
    name:
        Diagnostic name, usually ``"<node>.cpu"``.
    quantum:
        Default scheduling quantum in microseconds.
    """

    #: Priority used by kernel activity (flusher daemons); lower is served first.
    KERNEL_PRIORITY = 0
    #: Priority used by ordinary request processing.
    USER_PRIORITY = 5

    def __init__(
        self,
        engine: Engine,
        cores: int,
        name: str = "cpu",
        quantum: Micros = ms(1),
    ) -> None:
        if quantum <= 0:
            raise SimulationError(f"cpu quantum must be positive: {quantum}")
        self.engine = engine
        self.cores = cores
        self.name = name
        self.quantum = quantum
        self.resource = ServerPool(engine, cores, name=name)
        self.accounting: dict[str, CumulativeCounter] = {
            category: CumulativeCounter() for category in CPU_CATEGORIES
        }
        #: Relative clock speed; DVFS faults lower it below 1.0, which
        #: stretches the wall time of every consumed quantum.
        self.speed = 1.0

    def consume(
        self,
        duration: Micros,
        category: str = "user",
        priority: int | None = None,
        quantum: Micros | None = None,
        wait: Micros = 0,
    ) -> tuple[Event, ...]:
        """Occupy one core for ``duration`` µs, sliced into quanta, then
        wait ``wait`` µs off-core.

        Returns the events to wait on, at most one:
        ``yield from cpu.consume(...)``.  The caller resumes once
        however many quanta the demand takes: the demand is one
        :class:`_CpuDemand` that claims a core and times its own
        quanta, drawing the same agenda entries, in the same order, as
        a process stepping through acquire → timeout → release itself
        would.  ``wait`` models a non-CPU stall that follows the slice
        (an instrumentation point's log-buffer lock, say); it is
        scheduled from the last release, so slice and stall together
        cost one resume.  A zero demand with no wait returns no event.
        """
        if category not in self.accounting:
            raise SimulationError(f"unknown CPU category {category!r}")
        if duration < 0:
            raise SimulationError(f"negative CPU demand: {duration}")
        if wait < 0:
            raise SimulationError(f"negative wait after CPU demand: {wait}")
        step = self.quantum if quantum is None else quantum
        if step <= 0:
            raise SimulationError(f"cpu quantum must be positive: {step}")
        if duration > 0:
            if priority is None:
                priority = self.USER_PRIORITY
            return (
                _CpuDemand(
                    self, duration, self.accounting[category], priority, step, wait
                ),
            )
        if wait > 0:
            return (Timeout(self.engine, wait),)
        return ()

    def seize(self, priority: int | None = None):
        """Claim one core without the quantum-release discipline.

        Returns the acquire event to ``yield`` on.  The caller holds
        the core until it calls :meth:`release` — this is how kernel
        activity that throttles everything else (direct reclaim, a
        stop-the-world pause) is modelled.  Account consumed time with
        :meth:`charge` while holding.
        """
        if priority is None:
            priority = self.KERNEL_PRIORITY
        return self.resource.acquire(priority=priority)

    def release(self, claim) -> None:
        """Release a core claimed with :meth:`seize`."""
        self.resource.release(claim)

    def charge(self, category: str, amount: Micros) -> None:
        """Account ``amount`` µs to ``category`` without occupying a core.

        Used for iowait: the CPU is idle while a thread blocks on disk,
        but SAR still reports the blocked time as %iowait.
        """
        if category not in self.accounting:
            raise SimulationError(f"unknown CPU category {category!r}")
        self.accounting[category].add(self.engine.now, amount)

    def utilization(self, start: Micros, stop: Micros) -> float:
        """User + system + steal time accounted in ``(start, stop]``
        over ``cores × (stop − start)``, capped at 1.  Unlike an
        occupancy integral, a quantum counts in the window where it
        ends, and time charged without a core (:meth:`charge`) counts."""
        if stop <= start:
            raise SimulationError(f"cpu window empty: [{start}, {stop})")
        busy = sum(self.accounting[c].between(start, stop) for c in _BUSY_CATEGORIES)
        return min(1.0, busy / ((stop - start) * self.cores))

    def category_pct(self, category: str, start: Micros, stop: Micros) -> float:
        """Percentage of capacity accounted to ``category`` over a window.

        ``iowait`` is capped at the window's idle share: many threads
        may block on the same disk simultaneously, but /proc-style
        %iowait can never exceed the time the CPU actually sat idle.
        """
        if stop <= start:
            raise SimulationError(f"cpu window empty: [{start}, {stop})")
        capacity = (stop - start) * self.cores
        used = self.accounting[category].between(start, stop)
        pct = 100.0 * used / capacity
        if category == "iowait":
            busy = sum(
                100.0 * self.accounting[c].between(start, stop) / capacity
                for c in _BUSY_CATEGORIES
            )
            pct = min(pct, max(0.0, 100.0 - busy))
        return pct

    def aggregate_pct(self, start: Micros, stop: Micros) -> float:
        """user + system + iowait percentage (the paper's Fig 10 metric)."""
        return min(
            100.0, sum(self.category_pct(c, start, stop) for c in CPU_CATEGORIES)
        )


class _SelfScheduling(Event):
    """An event that holds a :class:`~repro.sim.resources.ServerPool`
    server itself and steps through its chain by putting itself back on
    the agenda: one object where a process would allocate an
    ``Acquire`` and a ``Timeout`` and resume on each.

    A grant puts it on the agenda now, the entry an ``Acquire``'s
    ``succeed`` would draw; each later step draws the entry the
    ``Timeout`` it replaces would draw.  The event stays pending until
    the chain finishes, so the waiting process resumes exactly once.
    """

    __slots__ = ()

    def _granted(self, now: Micros) -> None:
        # self._push(0), inline: one per grant of a core or the disk.
        engine = self.engine
        engine._sequence += 1
        engine._lane.append(self)

    def _push(self, delay: Micros) -> None:
        """:meth:`Engine._schedule <repro.sim.engine.Engine._schedule>`
        inline, for a delay that is never negative."""
        engine = self.engine
        sequence = engine._sequence
        engine._sequence = sequence + 1
        if delay:
            heappush(engine._agenda, (engine._now + delay, sequence, self))
        else:
            engine._lane.append(self)

    def _finish(self, exception: BaseException | None = None) -> None:
        """Succeed (or fail) and resume the waiters now."""
        self._exception = exception
        Event._process(self)


class _CpuDemand(_SelfScheduling):
    """One :meth:`Cpu.consume` demand: the event its caller waits on,
    its own core claim and its own quantum timer.

    Once granted a core, processing it steps the chain:

    * granted → take one quantum and put itself back on the agenda when
      the quantum ends (the entry a ``Timeout(wall)`` would draw);
    * sliced → release the core, account the time, and request the core
      again for the next quantum, or finish.

    It finishes inline at the last release, so the caller carries on at
    exactly the point a generator would have; with a trailing ``wait``
    it succeeds ``wait`` µs later instead, the entry a
    ``timeout(wait)`` yielded there would draw.  An exception raised
    along the chain fails the demand inline, so it is thrown into the
    waiting process where a generator would have raised it.
    """

    __slots__ = (
        "cpu", "remaining", "counter", "priority", "step", "wait", "wall",
        "_on_core",
    )

    def __init__(
        self,
        cpu: Cpu,
        duration: Micros,
        counter: CumulativeCounter,
        priority: int,
        step: Micros,
        wait: Micros,
    ) -> None:
        # One per consume() call: fill Event's slots here rather than
        # through Event.__init__ (measurably cheaper, as for Timeout).
        self.engine = cpu.engine
        self.callbacks = []
        self._value = None
        self._exception = None
        self._state = _PENDING
        self._defused = False
        self.cpu = cpu
        self.remaining = duration
        self.counter = counter
        self.priority = priority
        self.step = step
        self.wait = wait
        self.wall: Micros = 0
        self._on_core = False
        cpu.resource._request(self, priority)

    def _process(self) -> None:
        if self._on_core:
            # The quantum is over: release the core, account the time,
            # and queue for the next quantum, or finish.
            self._on_core = False
            cpu = self.cpu
            try:
                cpu.resource.release(self)
                self.counter.add(self.engine._now, self.wall)
                if self.remaining > 0:
                    cpu.resource._request(self, self.priority)
                    return
            except Exception as exc:
                self._finish(exc)
                return
            if self.wait:
                self.succeed(delay=self.wait)
            else:
                self._finish()
        elif self._state is _PENDING:
            # Granted a core: run one quantum on it.
            remaining = self.remaining
            piece = self.step if self.step < remaining else remaining
            self.remaining = remaining - piece
            try:
                # A lowered clock (DVFS) stretches the wall time the
                # demand occupies, read at each grant; the accounted
                # busy time is the wall time, as /proc would report it.
                speed = self.cpu.speed
                wall = piece if speed >= 1.0 else round(piece / speed)
                if wall < 0:
                    raise SimulationError(f"negative timeout delay: {wall}")
            except Exception as exc:
                self._finish(exc)
                return
            self.wall = wall
            self._on_core = True
            self._push(wall)
        else:
            # The trailing wait is over.
            Event._process(self)


class Disk:
    """A disk with one service channel, seek latency, and bandwidth.

    Read/write byte counters mirror what IOstat derives from
    ``/proc/diskstats``; utilization comes from the busy integral of
    the service channel.  One I/O is one :class:`_DiskIo` event (claim →
    service time → release → counters), so the caller resumes once per
    I/O.
    """

    def __init__(
        self,
        engine: Engine,
        name: str = "disk",
        bandwidth_bytes_per_sec: int = 100 * 1024 * 1024,
        seek_us: Micros = 200,
    ) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise SimulationError("disk bandwidth must be positive")
        self.engine = engine
        self.name = name
        self.bandwidth = bandwidth_bytes_per_sec
        self.seek_us = seek_us
        self.resource = Resource(engine, 1, name=name)
        self.read_bytes = CumulativeCounter()
        self.write_bytes = CumulativeCounter()
        self.read_ops = CumulativeCounter()
        self.write_ops = CumulativeCounter()

    def transfer_duration(self, nbytes: int) -> Micros:
        """Service time for one I/O of ``nbytes``."""
        if nbytes < 0:
            raise SimulationError(f"negative I/O size: {nbytes}")
        return self.seek_us + (nbytes * US_PER_SEC) // self.bandwidth

    def read(self, nbytes: int, priority: int = 5) -> tuple[Event]:
        """A synchronous read: ``yield from disk.read(...)``."""
        return (_DiskIo(self, nbytes, self.read_bytes, self.read_ops, priority),)

    def write(self, nbytes: int, priority: int = 5) -> tuple[Event]:
        """A synchronous write: ``yield from disk.write(...)``."""
        return (_DiskIo(self, nbytes, self.write_bytes, self.write_ops, priority),)

    def utilization(self, start: Micros, stop: Micros) -> float:
        """Fraction of time the disk was servicing I/O over ``[start, stop)``."""
        return self.resource.utilization(start, stop)

    @property
    def queue_series(self) -> StepSeries:
        """Step series of the I/O wait-queue length."""
        return self.resource.queue_series


class _DiskIo(_SelfScheduling):
    """One disk I/O: the event its caller waits on, its own claim on
    the service channel and its own service timer.

    Once granted the channel, processing it starts the service time;
    processing it again releases the channel, counts the bytes and the
    op, and resumes the caller inline, where a generator stepping
    through the same calls would have carried on (or, if that step
    raises, fails into it).
    """

    __slots__ = ("disk", "nbytes", "byte_counter", "op_counter", "duration", "_serving")

    def __init__(
        self,
        disk: Disk,
        nbytes: int,
        byte_counter: CumulativeCounter,
        op_counter: CumulativeCounter,
        priority: int,
    ) -> None:
        super().__init__(disk.engine)
        self.disk = disk
        self.nbytes = nbytes
        self.byte_counter = byte_counter
        self.op_counter = op_counter
        self.duration = disk.transfer_duration(nbytes)
        self._serving = False
        disk.resource._request(self, priority)

    def _process(self) -> None:
        if not self._serving:
            self._serving = True
            self._push(self.duration)
            return
        now = self.engine._now
        try:
            self.disk.resource.release(self)
            self.byte_counter.add(now, self.nbytes)
            self.op_counter.add(now, 1)
        except Exception as exc:
            self._finish(exc)
            return
        self._finish()


class PageCache:
    """Dirty-page tracking for one node.

    Buffered writes (log appends, application file writes) dirty pages;
    the kernel flusher cleans them.  The dirty level is what Collectl's
    memory subsystem reports and what Fig 8d plots: a current value.
    """

    def __init__(self, name: str = "pagecache") -> None:
        self.name = name
        #: Current dirty-page volume in bytes.
        self.dirty_bytes = 0

    def dirty(self, nbytes: int) -> None:
        """Mark ``nbytes`` of freshly written data dirty."""
        if nbytes < 0:
            raise SimulationError(f"negative dirty amount: {nbytes}")
        self.dirty_bytes += nbytes

    def clean(self, nbytes: int) -> int:
        """Write back up to ``nbytes``; returns the amount actually cleaned."""
        if nbytes < 0:
            raise SimulationError(f"negative clean amount: {nbytes}")
        actual = min(nbytes, self.dirty_bytes)
        self.dirty_bytes -= actual
        return actual
