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

from bisect import bisect_right

from repro.common.errors import SimulationError
from repro.common.timebase import Micros, US_PER_SEC, ms
from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout
from repro.sim.resources import Resource
from repro.sim.tracking import StepSeries

__all__ = ["CumulativeCounter", "Cpu", "Disk", "PageCache", "CPU_CATEGORIES"]

#: CPU time categories, matching what SAR reports.  The paper's Fig 10
#: aggregates user + system + iowait; ``steal`` exists for the VM
#: consolidation root cause the paper cites (its ref [5]).
CPU_CATEGORIES = ("user", "system", "iowait", "steal")


class CumulativeCounter:
    """A monotone cumulative counter readable over windows.

    Mirrors ``/proc`` semantics: monitors sample the running total and
    difference consecutive samples.
    """

    __slots__ = ("_times", "_totals")

    def __init__(self) -> None:
        self._times: list[Micros] = [0]
        self._totals: list[float] = [0.0]

    def add(self, time: Micros, amount: float) -> None:
        """Add ``amount`` to the counter at ``time``."""
        if amount < 0:
            raise SimulationError(f"counter decrement not allowed: {amount}")
        last = self._times[-1]
        if time < last:
            raise SimulationError(f"counter add out of order: {time} < {last}")
        if time == last:
            self._totals[-1] += amount
        else:
            self._times.append(time)
            self._totals.append(self._totals[-1] + amount)

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
    burst.

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
        self.resource = Resource(engine, cores, name=name)
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
    ):
        """Occupy one core for ``duration`` µs, sliced into quanta, then
        wait ``wait`` µs off-core.

        This is a process generator: ``yield from cpu.consume(...)``.
        The caller resumes once however many quanta the demand takes:
        the quanta run as a callback chain (see :class:`_CpuDemand`)
        that draws the same agenda entries, in the same order, as a
        process stepping through acquire → timeout → release itself
        would.  ``wait`` models a non-CPU stall that follows the slice
        (an instrumentation point's log-buffer lock, say); it is
        scheduled from the last release, so slice and stall together
        cost one resume.
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
            done: Event = _CpuDemand(
                self, duration, self.accounting[category], priority, step, wait
            )
        elif wait > 0:
            done = self.engine.timeout(wait)
        else:
            return
        yield done

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
        """Fraction of core capacity occupied over ``[start, stop)``."""
        return self.resource.utilization(start, stop)

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
                for c in ("user", "system", "steal")
            )
            pct = min(pct, max(0.0, 100.0 - busy))
        return pct

    def aggregate_pct(self, start: Micros, stop: Micros) -> float:
        """user + system + iowait percentage (the paper's Fig 10 metric)."""
        return min(
            100.0, sum(self.category_pct(c, start, stop) for c in CPU_CATEGORIES)
        )


class _CpuDemand(Event):
    """One :meth:`Cpu.consume` demand: the event its caller waits on,
    driven by a callback chain.

    Each quantum is grant → timeout → release → next acquire, and each
    step is a callback on the previous step's event, so the agenda
    entries (the grant, the quantum's timeout, whatever a release
    grants to a waiter) are drawn in the order a generator stepping
    through the same calls would draw them.  The demand completes
    inline at the last release, so the caller carries on at exactly
    the point a generator would have; with a trailing ``wait`` it is
    scheduled ``wait`` µs later instead, the entry a ``timeout(wait)``
    yielded there would draw.  An exception raised along the chain
    fails the demand inline, so it is thrown into the waiting process
    where a generator would have raised it.
    """

    __slots__ = (
        "cpu", "remaining", "counter", "priority", "step", "wait", "claim",
        "wall",
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
        super().__init__(cpu.engine)
        self.cpu = cpu
        self.remaining = duration
        self.counter = counter
        self.priority = priority
        self.step = step
        self.wait = wait
        self._acquire()

    def _acquire(self) -> None:
        self.claim = self.cpu.resource.acquire(priority=self.priority)
        self.claim.callbacks.append(self._granted)

    def _granted(self, claim: Event) -> None:
        cpu = self.cpu
        remaining = self.remaining
        piece = self.step if self.step < remaining else remaining
        self.remaining = remaining - piece
        try:
            # A lowered clock (DVFS) stretches the wall time the demand
            # occupies, read at each grant; the accounted busy time is
            # the wall time, as /proc would report it.
            speed = cpu.speed
            self.wall = piece if speed >= 1.0 else round(piece / speed)
            Timeout(cpu.engine, self.wall).callbacks.append(self._sliced)
        except Exception as exc:
            self._complete(exc)

    def _sliced(self, timeout: Event) -> None:
        cpu = self.cpu
        try:
            cpu.resource.release(self.claim)
            self.counter.add(cpu.engine._now, self.wall)
            if self.remaining > 0:
                self._acquire()
                return
        except Exception as exc:
            self._complete(exc)
            return
        if self.wait:
            self.succeed(delay=self.wait)
        else:
            self._complete()


class Disk:
    """A disk with one service channel, seek latency, and bandwidth.

    Read/write byte counters mirror what IOstat derives from
    ``/proc/diskstats``; utilization comes from the busy integral of
    the service channel.
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

    def read(self, nbytes: int, priority: int = 5):
        """Perform a synchronous read (process generator)."""
        yield from self._io(nbytes, self.read_bytes, self.read_ops, priority)

    def write(self, nbytes: int, priority: int = 5):
        """Perform a synchronous write (process generator)."""
        yield from self._io(nbytes, self.write_bytes, self.write_ops, priority)

    def _io(
        self,
        nbytes: int,
        byte_counter: CumulativeCounter,
        op_counter: CumulativeCounter,
        priority: int,
    ):
        duration = self.transfer_duration(nbytes)
        claim = self.resource.acquire(priority=priority)
        yield claim
        yield self.engine.timeout(duration)
        self.resource.release(claim)
        byte_counter.add(self.engine.now, nbytes)
        op_counter.add(self.engine.now, 1)

    def utilization(self, start: Micros, stop: Micros) -> float:
        """Fraction of time the disk was servicing I/O over ``[start, stop)``."""
        return self.resource.utilization(start, stop)

    @property
    def queue_series(self) -> StepSeries:
        """Step series of the I/O wait-queue length."""
        return self.resource.queue_series


class PageCache:
    """Dirty-page tracking for one node.

    Buffered writes (log appends, application file writes) dirty pages;
    the kernel flusher cleans them.  The dirty level is what Collectl's
    memory subsystem reports and what Fig 8d plots.
    """

    def __init__(self, engine: Engine, name: str = "pagecache") -> None:
        self.engine = engine
        self.name = name
        self.dirty_series = StepSeries(initial=0)

    @property
    def dirty_bytes(self) -> int:
        """Current dirty-page volume in bytes."""
        return int(self.dirty_series.current)

    def dirty(self, nbytes: int) -> None:
        """Mark ``nbytes`` of freshly written data dirty."""
        if nbytes < 0:
            raise SimulationError(f"negative dirty amount: {nbytes}")
        self.dirty_series.adjust(self.engine.now, nbytes)

    def clean(self, nbytes: int) -> int:
        """Write back up to ``nbytes``; returns the amount actually cleaned."""
        if nbytes < 0:
            raise SimulationError(f"negative clean amount: {nbytes}")
        actual = min(nbytes, self.dirty_bytes)
        if actual:
            self.dirty_series.adjust(self.engine.now, -actual)
        return actual
