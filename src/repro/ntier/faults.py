"""Very-short-bottleneck fault injectors: the one fault catalogue.

Every VLRT root cause the reproduction injects lives here.  The two
illustrated scenarios of Section V:

* :class:`DBLogFlushFault` — the database flushes its log from memory
  to disk in large bursts; the disk saturates for hundreds of
  milliseconds and synchronous commits queue behind the flush
  (scenario A / Figures 2, 4, 6, 7).
* :class:`DirtyPageFlushFault` — dirty pages accumulate until the
  kernel flusher kicks in, stealing every core at kernel priority for
  a short burst; the dirty-page count drops abruptly while the CPU
  saturates (scenario B / Figure 8).

The further causes Section II cites — JVM garbage collection
(:class:`GarbageCollectionFault`), CPU frequency scaling
(:class:`DvfsSlowdownFault`) and VM consolidation
(:class:`VmConsolidationFault`) — and six drawn from the
millibottleneck taxonomy and the microservices trace studies of the
related work: retry storms, connection-pool exhaustion, lock convoys,
cache stampedes, network jitter and memory leaks.

Each class declares once what validation needs to label and score it:
its cause ``name``, the ``resource`` an episode saturates, the
resource-metric ``evidence_kinds`` that count as a correct
attribution, and the ``windows_attr`` its completed ``(start, stop)``
episodes land in (read uniformly through :attr:`Fault.windows`).
:data:`FAULTS` maps every cause name to its class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.common.timebase import Micros, ms
from repro.ntier.hardware import Cpu
from repro.ntier.node import Node

if TYPE_CHECKING:
    from repro.ntier.system import NTierSystem

__all__ = [
    "FAULTS",
    "Fault",
    "EpisodicFault",
    "DBLogFlushFault",
    "DirtyPageFlushFault",
    "GarbageCollectionFault",
    "DvfsSlowdownFault",
    "VmConsolidationFault",
    "RetryStormFault",
    "ConnectionPoolExhaustionFault",
    "LockConvoyFault",
    "CacheStampedeFault",
    "NetworkJitterFault",
    "MemoryLeakFault",
]


def _check_count(what: str, value: object, minimum: int) -> None:
    """Reject a count that is not an integer ``>= minimum`` (a bool is
    not a count, and a string must fail here, not mid-run)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")


class Fault:
    """Base class for fault injectors."""

    #: Cause label recorded in experiment metadata and fault schedules.
    name = "fault"
    #: Hardware component an episode saturates (``"cpu"``/``"disk"``)
    #: — what diagnosis should implicate.
    resource = ""
    #: Resource-metric kinds (:mod:`repro.analysis.metrics` vocabulary)
    #: that count as a correct attribution of this cause.
    evidence_kinds: tuple[str, ...] = ()
    #: Attribute holding the completed ``(start, stop)`` episodes.
    windows_attr = ""

    @property
    def windows(self) -> list[tuple[Micros, Micros]]:
        """Completed episode windows, whatever the attribute's name."""
        return getattr(self, self.windows_attr)

    def install(self, system: "NTierSystem") -> None:
        """Attach the fault's processes to the built system."""
        raise NotImplementedError


class EpisodicFault(Fault):
    """A fault injected on a fixed schedule: the first episode at
    ``start_at``, then one every ``period`` after the previous ended,
    ``episodes`` times (``None`` = keep going forever).

    Subclasses implement :meth:`_episode`, a generator running one
    episode on the tier's node; the base records its window.
    """

    def __init__(
        self,
        tier: str,
        start_at: Micros,
        period: Micros,
        episodes: int | None = None,
    ) -> None:
        if period <= 0:
            raise ConfigError("period must be positive")
        if episodes is not None:
            _check_count(f"{self.name} episode count", episodes, 1)
        self.tier = tier
        self.start_at = start_at
        self.period = period
        self.episodes = episodes
        setattr(self, self.windows_attr, [])

    def install(self, system: "NTierSystem") -> None:
        node = system.node_for_tier(self.tier)
        system.engine.process(self._schedule(system, node))

    def _schedule(self, system: "NTierSystem", node: Node):
        engine = system.engine
        yield engine.timeout(self.start_at)
        injected = 0
        while self.episodes is None or injected < self.episodes:
            started = engine.now
            yield from self._episode(system, node)
            self.windows.append((started, engine.now))
            injected += 1
            if self.episodes is not None and injected >= self.episodes:
                break
            yield engine.timeout(self.period)

    def _episode(self, system: "NTierSystem", node: Node):
        raise NotImplementedError
        yield  # pragma: no cover

    def _burn_cores(
        self,
        node: Node,
        duration: Micros,
        category: str,
        cores: int | None = None,
    ):
        """Hold ``cores`` cores (default: all) at kernel priority for
        ``duration``, charging ``category`` in quantum-sized pieces so
        sampling windows see the saturation spread over the episode."""
        count = node.spec.cores if cores is None else cores
        workers = [
            node.engine.process(self._burn_one(node, duration, category))
            for _ in range(count)
        ]
        for worker in workers:
            yield worker

    def _burn_one(self, node: Node, duration: Micros, category: str):
        claim = node.cpu.seize(priority=Cpu.KERNEL_PRIORITY)
        yield claim
        try:
            remaining = duration
            while remaining > 0:
                piece = min(node.cpu.quantum, remaining)
                yield node.engine.timeout(piece)
                node.cpu.charge(category, piece)
                remaining -= piece
        finally:
            node.cpu.release(claim)


def _begin_log_flush(server) -> None:
    if server is not None and hasattr(server, "begin_log_flush"):
        server.begin_log_flush()


def _end_log_flush(server) -> None:
    if server is not None and hasattr(server, "end_log_flush"):
        server.end_log_flush()


class DBLogFlushFault(EpisodicFault):
    """Periodic large log flushes on the database node's disk.

    Parameters
    ----------
    start_at:
        Simulation time of the first flush.
    period:
        Interval between flush bursts.
    flush_bytes:
        Volume written per burst; at the default disk bandwidth,
        30 MiB ≈ 300 ms of disk saturation.
    bursts:
        Number of bursts to inject (``None`` = keep going forever).
    tier:
        The tier whose node hosts the flush (default ``"mysql"``).
    """

    name = "db_log_flush"
    resource = "disk"
    evidence_kinds = ("disk_util",)
    #: ``(start, stop)`` of each completed flush burst — the labeled
    #: ground-truth intervals the validation harness scores diagnosis
    #: output against.
    windows_attr = "flush_windows"

    def __init__(
        self,
        start_at: Micros,
        period: Micros,
        flush_bytes: int = 30 * 1024 * 1024,
        bursts: int | None = None,
        tier: str = "mysql",
    ) -> None:
        if flush_bytes <= 0:
            raise ConfigError("flush_bytes must be positive")
        super().__init__(tier, start_at, period, bursts)
        self.flush_bytes = flush_bytes
        self.flush_times: list[Micros] = []

    def _episode(self, system: "NTierSystem", node: Node):
        self.flush_times.append(node.engine.now)
        # Group-commit semantics: commits arriving during the flush
        # wait on the barrier, and the flush itself is one large
        # sequential write that saturates the disk — together these
        # produce the VLRT requests of scenario A.
        server = system.servers.get(self.tier)
        _begin_log_flush(server)
        yield from node.disk.write(self.flush_bytes, priority=5)
        _end_log_flush(server)


class DirtyPageFlushFault(Fault):
    """Kernel dirty-page writeback bursts on one tier's node.

    A background dirtier (standing in for application file writes plus
    log traffic) raises the dirty level; when it crosses ``threshold``
    the flusher claims every core at kernel priority and cleans down to
    ``low_watermark``, saturating the CPU for the burst duration.

    Parameters
    ----------
    tier:
        The tier whose node is affected.
    threshold_bytes / low_watermark_bytes:
        Trigger and stop levels (``vm.dirty_ratio`` semantics).
    dirty_rate_bytes_per_sec:
        Background dirtying rate.
    chunk_bytes:
        Page volume recycled per flusher work unit.
    cpu_per_chunk_us:
        Kernel CPU consumed per chunk per worker.  Recycling is pure
        page-reclaim scanning — CPU work, no disk traffic — matching
        the paper's observation that scenario B shows CPU saturation
        *without* elevated I/O utilization.
    check_interval:
        How often the watcher samples the dirty level.
    """

    name = "dirty_page_flush"
    resource = "cpu"
    #: Recycling shows up both as the CPU it saturates and as the
    #: dirty-level drop itself.
    evidence_kinds = ("cpu_busy", "dirty_pages")
    windows_attr = "burst_windows"

    def __init__(
        self,
        tier: str,
        threshold_bytes: int = 96 * 1024 * 1024,
        low_watermark_bytes: int = 16 * 1024 * 1024,
        dirty_rate_bytes_per_sec: int = 48 * 1024 * 1024,
        chunk_bytes: int = 256 * 1024,
        cpu_per_chunk_us: Micros = ms(10),
        check_interval: Micros = ms(10),
        initial_dirty_bytes: int = 0,
    ) -> None:
        if low_watermark_bytes >= threshold_bytes:
            raise ConfigError("low watermark must be below the threshold")
        if min(chunk_bytes, cpu_per_chunk_us, check_interval) <= 0:
            raise ConfigError("chunk/cpu/check parameters must be positive")
        self.tier = tier
        self.threshold_bytes = threshold_bytes
        self.low_watermark_bytes = low_watermark_bytes
        self.dirty_rate = dirty_rate_bytes_per_sec
        self.chunk_bytes = chunk_bytes
        self.cpu_per_chunk_us = cpu_per_chunk_us
        self.check_interval = check_interval
        self.initial_dirty_bytes = initial_dirty_bytes
        self.burst_windows: list[tuple[Micros, Micros]] = []

    def install(self, system: "NTierSystem") -> None:
        node = system.node_for_tier(self.tier)
        if self.initial_dirty_bytes:
            node.page_cache.dirty(self.initial_dirty_bytes)
        if self.dirty_rate > 0:
            system.engine.process(self._dirtier(node))
        system.engine.process(self._watcher(node))

    def _dirtier(self, node: Node):
        engine = node.engine
        per_tick = int(self.dirty_rate * self.check_interval / 1_000_000)
        while True:
            yield engine.timeout(self.check_interval)
            node.page_cache.dirty(per_tick)

    def _watcher(self, node: Node):
        engine = node.engine
        while True:
            yield engine.timeout(self.check_interval)
            if node.page_cache.dirty_bytes >= self.threshold_bytes:
                started = engine.now
                yield from self._flush_burst(node)
                self.burst_windows.append((started, engine.now))

    def _flush_burst(self, node: Node):
        cores = node.spec.cores
        state = {"active": True}
        workers = [
            node.engine.process(self._flusher_worker(node, state))
            for _ in range(cores)
        ]
        # Wait for every worker to drain its share.
        for worker in workers:
            yield worker

    def _flusher_worker(self, node: Node, state: dict):
        # The reclaim worker holds its core for the whole burst: direct
        # reclaim throttles every other task on the CPU, which is what
        # starves request processing and produces the ~second-long RT
        # peaks of Fig 8a.  The first worker to see the low watermark
        # stops the whole burst, even if the dirtier refills meanwhile.
        claim = node.cpu.seize(priority=Cpu.KERNEL_PRIORITY)
        yield claim
        try:
            while state["active"]:
                if node.page_cache.dirty_bytes <= self.low_watermark_bytes:
                    state["active"] = False
                    break
                yield node.engine.timeout(self.cpu_per_chunk_us)
                node.cpu.charge("system", self.cpu_per_chunk_us)
                node.page_cache.clean(self.chunk_bytes)
        finally:
            node.cpu.release(claim)


class GarbageCollectionFault(EpisodicFault):
    """Stop-the-world JVM collections: periodic full-CPU kernel bursts.

    No request thread makes progress while every core is held for the
    ``pause``.
    """

    name = "jvm_gc"
    resource = "cpu"
    evidence_kinds = ("cpu_busy",)
    windows_attr = "pause_windows"

    def __init__(
        self,
        tier: str,
        start_at: Micros,
        period: Micros,
        pause: Micros = ms(250),
        collections: int | None = None,
    ) -> None:
        if pause <= 0:
            raise ConfigError("pause must be positive")
        super().__init__(tier, start_at, period, collections)
        self.pause = pause

    def _episode(self, system: "NTierSystem", node: Node):
        yield from self._burn_cores(node, self.pause, "system")


class DvfsSlowdownFault(EpisodicFault):
    """CPU frequency drops for short windows (governor napping).

    Under a power-saving governor, a lull in utilization drops the
    clock; the next request burst then executes at a fraction of the
    nominal speed until the governor ramps back up — a classic
    architectural-layer VSB.

    Parameters
    ----------
    tier:
        The affected tier.
    start_at / period / episodes:
        When the first slowdown begins, the spacing between slowdowns,
        and how many to inject (``None`` = forever).
    slow_duration:
        Length of each reduced-frequency window.
    speed_factor:
        Relative clock during the window (e.g. 0.25 = quarter speed).
    """

    name = "dvfs_slowdown"
    resource = "cpu"
    evidence_kinds = ("cpu_busy",)
    windows_attr = "slow_windows"

    def __init__(
        self,
        tier: str,
        start_at: Micros,
        period: Micros,
        slow_duration: Micros = ms(400),
        speed_factor: float = 0.25,
        episodes: int | None = None,
    ) -> None:
        if not 0.0 < speed_factor < 1.0:
            raise ConfigError(f"speed factor out of (0, 1): {speed_factor}")
        if slow_duration <= 0:
            raise ConfigError("slow_duration must be positive")
        super().__init__(tier, start_at, period, episodes)
        self.slow_duration = slow_duration
        self.speed_factor = speed_factor

    def _episode(self, system: "NTierSystem", node: Node):
        node.cpu.speed = self.speed_factor
        yield system.engine.timeout(self.slow_duration)
        node.cpu.speed = 1.0


class VmConsolidationFault(EpisodicFault):
    """A co-located VM steals CPU for short bursts.

    Consolidation places other tenants on the same physical host; when
    a neighbour becomes active, the hypervisor preempts the guest
    outright and its SAR shows %steal — the VM-layer VSB the paper
    cites.

    Parameters
    ----------
    tier:
        The affected tier.
    stolen_cores:
        How many cores the neighbour takes during a burst (0 = all).
    burst:
        Length of each interference burst.
    period:
        Spacing between bursts.
    """

    name = "vm_consolidation"
    resource = "cpu"
    evidence_kinds = ("cpu_steal",)
    windows_attr = "steal_windows"

    def __init__(
        self,
        tier: str,
        start_at: Micros,
        period: Micros,
        burst: Micros = ms(300),
        stolen_cores: int = 0,
        episodes: int | None = None,
    ) -> None:
        if burst <= 0:
            raise ConfigError("burst must be positive")
        _check_count("stolen_cores", stolen_cores, 0)
        super().__init__(tier, start_at, period, episodes)
        self.burst = burst
        self.stolen_cores = stolen_cores

    def _episode(self, system: "NTierSystem", node: Node):
        cores = min(self.stolen_cores or node.spec.cores, node.spec.cores)
        yield from self._burn_cores(node, self.burst, "steal", cores)


class RetryStormFault(EpisodicFault):
    """Timeout-triggered retry amplification on the application tier.

    A transient blip pushes some responses past the client timeout;
    every timed-out caller retries, multiplying the servlet load, whose
    timeouts trigger still more retries — the storm sustains itself for
    hundreds of milliseconds of user-CPU saturation before the queues
    drain.  Modeled as the amplified servlet work itself: all cores
    busy executing (user-mode) retry copies for ``storm_duration``.
    """

    name = "retry_storm"
    resource = "cpu"
    evidence_kinds = ("cpu_busy",)
    windows_attr = "storm_windows"

    def __init__(
        self,
        tier: str = "tomcat",
        start_at: Micros = 0,
        period: Micros = ms(1000),
        storm_duration: Micros = ms(400),
        episodes: int | None = None,
    ) -> None:
        if storm_duration <= 0:
            raise ConfigError("storm_duration must be positive")
        super().__init__(tier, start_at, period, episodes)
        self.storm_duration = storm_duration

    def _episode(self, system: "NTierSystem", node: Node):
        yield from self._burn_cores(node, self.storm_duration, "user")


class ConnectionPoolExhaustionFault(EpisodicFault):
    """Stuck transactions exhaust one replica's connection pool.

    ``held_fraction`` of the replica's worker pool is claimed by
    stragglers that sit on their connections running oversized reads;
    fresh queries wait in the pool's queue until the stragglers
    release.  The disk saturates under the stragglers' reads — the
    observable resource signal on the afflicted replica's node.
    """

    name = "pool_exhaustion"
    resource = "disk"
    evidence_kinds = ("disk_util",)
    windows_attr = "exhaustion_windows"

    def __init__(
        self,
        tier: str = "mysql",
        start_at: Micros = 0,
        period: Micros = ms(1000),
        hold_duration: Micros = ms(450),
        held_fraction: float = 0.9,
        read_bytes: int = 512 * 1024,
        episodes: int | None = None,
    ) -> None:
        if hold_duration <= 0:
            raise ConfigError("hold_duration must be positive")
        if not 0.0 < held_fraction <= 1.0:
            raise ConfigError(f"held_fraction out of (0, 1]: {held_fraction}")
        if read_bytes <= 0:
            raise ConfigError("read_bytes must be positive")
        super().__init__(tier, start_at, period, episodes)
        self.hold_duration = hold_duration
        self.held_fraction = held_fraction
        self.read_bytes = read_bytes

    def _episode(self, system: "NTierSystem", node: Node):
        server = system.servers[self.tier]
        count = max(1, int(server.workers.capacity * self.held_fraction))
        stragglers = [
            system.engine.process(self._straggler(server, node))
            for _ in range(count)
        ]
        for straggler in stragglers:
            yield straggler

    def _straggler(self, server, node: Node):
        # Stragglers outrank arriving queries in the pool queue
        # (priority -1 < the servers' default 0), so the exhaustion
        # takes hold even on a busy replica.
        claim = server.workers.acquire(priority=-1)
        yield claim
        try:
            deadline = node.engine.now + self.hold_duration
            while node.engine.now < deadline:
                started = node.engine.now
                yield from node.disk.read(self.read_bytes, priority=5)
                node.cpu.charge("iowait", node.engine.now - started)
        finally:
            server.workers.release(claim)


class LockConvoyFault(EpisodicFault):
    """A hot lock serializes the database tier.

    Every transaction convoys behind one lock: commits stall on the
    barrier while the lock-holder handoffs burn system CPU on every
    core (the convoy's context-switch storm) for ``convoy_duration``.
    """

    name = "lock_convoy"
    resource = "cpu"
    evidence_kinds = ("cpu_busy",)
    windows_attr = "convoy_windows"

    def __init__(
        self,
        tier: str = "mysql",
        start_at: Micros = 0,
        period: Micros = ms(1000),
        convoy_duration: Micros = ms(400),
        episodes: int | None = None,
    ) -> None:
        if convoy_duration <= 0:
            raise ConfigError("convoy_duration must be positive")
        super().__init__(tier, start_at, period, episodes)
        self.convoy_duration = convoy_duration

    def _episode(self, system: "NTierSystem", node: Node):
        server = system.servers.get(self.tier)
        _begin_log_flush(server)
        try:
            yield from self._burn_cores(node, self.convoy_duration, "system")
        finally:
            _end_log_flush(server)


class CacheStampedeFault(EpisodicFault):
    """A buffer-pool flush stampedes every read to disk.

    For ``stampede_duration`` the replica's cache hit rate collapses to
    zero (``miss_override = 1.0``) and each miss fetches
    ``read_multiplier`` times the hot-page volume — cold reads are
    full-table scans.  The disk saturates under the re-fetch stampede.
    """

    name = "cache_stampede"
    resource = "disk"
    evidence_kinds = ("disk_util",)
    windows_attr = "stampede_windows"

    def __init__(
        self,
        tier: str = "mysql",
        start_at: Micros = 0,
        period: Micros = ms(1000),
        stampede_duration: Micros = ms(450),
        read_multiplier: float = 12.0,
        episodes: int | None = None,
    ) -> None:
        if stampede_duration <= 0:
            raise ConfigError("stampede_duration must be positive")
        if read_multiplier <= 0:
            raise ConfigError("read_multiplier must be positive")
        super().__init__(tier, start_at, period, episodes)
        self.stampede_duration = stampede_duration
        self.read_multiplier = read_multiplier

    def _episode(self, system: "NTierSystem", node: Node):
        server = system.servers[self.tier]
        server.miss_override = 1.0
        server.read_multiplier = self.read_multiplier
        try:
            yield system.engine.timeout(self.stampede_duration)
        finally:
            server.miss_override = None
            server.read_multiplier = 1.0


class NetworkJitterFault(EpisodicFault):
    """A noisy neighbour congests the afflicted node's network path.

    During a burst every hop into or out of the tier's bus address pays
    ``extra_latency_us`` one-way, and the co-located tenant's softirq
    load shows up as stolen cycles on the node — the guest-visible
    signature of a neighbour saturating a shared NIC.
    """

    name = "net_jitter"
    resource = "cpu"
    evidence_kinds = ("cpu_steal",)
    windows_attr = "jitter_windows"

    def __init__(
        self,
        tier: str = "mysql",
        start_at: Micros = 0,
        period: Micros = ms(1000),
        jitter_duration: Micros = ms(350),
        extra_latency_us: Micros = ms(20),
        episodes: int | None = None,
    ) -> None:
        if jitter_duration <= 0:
            raise ConfigError("jitter_duration must be positive")
        if extra_latency_us <= 0:
            raise ConfigError("extra_latency_us must be positive")
        super().__init__(tier, start_at, period, episodes)
        self.jitter_duration = jitter_duration
        self.extra_latency_us = extra_latency_us

    def _episode(self, system: "NTierSystem", node: Node):
        system.bus.set_extra_latency(self.tier, self.extra_latency_us)
        try:
            yield from self._burn_cores(node, self.jitter_duration, "steal")
        finally:
            system.bus.set_extra_latency(self.tier, None)


class MemoryLeakFault(Fault):
    """A slow memory leak ends in periodic reclaim thrash.

    A leaking process dirties pages at ``leak_rate_bytes_per_sec``;
    when the dirty level crosses ``threshold_bytes`` reclaim takes
    every core at kernel priority and scans the level back down to
    ``low_watermark_bytes``.  Unlike the episodic faults the thrash
    times emerge from the leak rate — the windows list fills with
    whatever bursts actually happened.
    """

    name = "memory_leak"
    resource = "cpu"
    evidence_kinds = ("cpu_busy", "dirty_pages")
    windows_attr = "thrash_windows"

    def __init__(
        self,
        tier: str = "cjdbc",
        start_at: Micros = 0,
        leak_rate_bytes_per_sec: int = 28 * 1024 * 1024,
        threshold_bytes: int = 40 * 1024 * 1024,
        low_watermark_bytes: int = 8 * 1024 * 1024,
        chunk_bytes: int = 256 * 1024,
        cpu_per_chunk_us: Micros = ms(10),
        check_interval: Micros = ms(10),
    ) -> None:
        if leak_rate_bytes_per_sec <= 0:
            raise ConfigError("leak rate must be positive")
        if low_watermark_bytes >= threshold_bytes:
            raise ConfigError("low watermark must be below the threshold")
        if min(chunk_bytes, cpu_per_chunk_us, check_interval) <= 0:
            raise ConfigError("chunk/cpu/check parameters must be positive")
        self.tier = tier
        self.start_at = start_at
        self.leak_rate = leak_rate_bytes_per_sec
        self.threshold_bytes = threshold_bytes
        self.low_watermark_bytes = low_watermark_bytes
        self.chunk_bytes = chunk_bytes
        self.cpu_per_chunk_us = cpu_per_chunk_us
        self.check_interval = check_interval
        self.thrash_windows: list[tuple[Micros, Micros]] = []

    def install(self, system: "NTierSystem") -> None:
        node = system.node_for_tier(self.tier)
        system.engine.process(self._leaker(node))
        system.engine.process(self._watcher(node))

    def _leaker(self, node: Node):
        engine = node.engine
        yield engine.timeout(self.start_at)
        per_tick = int(self.leak_rate * self.check_interval / 1_000_000)
        while True:
            yield engine.timeout(self.check_interval)
            node.page_cache.dirty(per_tick)

    def _watcher(self, node: Node):
        engine = node.engine
        while True:
            yield engine.timeout(self.check_interval)
            if node.page_cache.dirty_bytes >= self.threshold_bytes:
                started = engine.now
                yield from self._thrash(node)
                self.thrash_windows.append((started, engine.now))

    def _thrash(self, node: Node):
        workers = [
            node.engine.process(self._reclaim_worker(node))
            for _ in range(node.spec.cores)
        ]
        for worker in workers:
            yield worker

    def _reclaim_worker(self, node: Node):
        # Unlike the dirty-page flusher, each worker checks the level
        # itself: a leak refilling past the watermark keeps it going.
        claim = node.cpu.seize(priority=Cpu.KERNEL_PRIORITY)
        yield claim
        try:
            while node.page_cache.dirty_bytes > self.low_watermark_bytes:
                yield node.engine.timeout(self.cpu_per_chunk_us)
                node.cpu.charge("system", self.cpu_per_chunk_us)
                node.page_cache.clean(self.chunk_bytes)
        finally:
            node.cpu.release(claim)


#: The fault catalogue: cause name → injector class.
FAULTS: dict[str, type[Fault]] = {
    cls.name: cls
    for cls in (
        DBLogFlushFault,
        DirtyPageFlushFault,
        GarbageCollectionFault,
        DvfsSlowdownFault,
        VmConsolidationFault,
        RetryStormFault,
        ConnectionPoolExhaustionFault,
        LockConvoyFault,
        CacheStampedeFault,
        NetworkJitterFault,
        MemoryLeakFault,
    )
}
