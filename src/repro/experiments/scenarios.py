"""Calibrated experiment scenarios.

Builders for the paper's experimental setups:

* :func:`scenario_a` — database log flush saturates the DB disk
  (Section V-A; Figures 2, 4, 6, 7);
* :func:`scenario_b` — dirty-page recycling saturates web/app CPUs at
  two different moments (Section V-B; Figure 8);
* :func:`baseline_run` — a healthy system at a given workload, with
  monitors on or off (Section VI; Figures 9, 10, 11);

and :data:`SCENARIOS`, the registry of labeled fault scenarios the
validation harness scores: one :class:`Scenario` row per cause,
declaring its injectors, tier overrides, mix and accuracy floors once.
:func:`run_scenario` runs a row.

Every run returns a :class:`ScenarioRun` carrying the system, its
ground truth, the attached monitors, and (when a log directory was
given) the native logs ready for mScopeDataTransformer.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.common.timebase import Micros, ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.faults import (
    CacheStampedeFault,
    ConnectionPoolExhaustionFault,
    DBLogFlushFault,
    DirtyPageFlushFault,
    DvfsSlowdownFault,
    Fault,
    GarbageCollectionFault,
    LockConvoyFault,
    MemoryLeakFault,
    NetworkJitterFault,
    RetryStormFault,
    VmConsolidationFault,
)
from repro.ntier.system import NTierSystem, SystemConfig, SystemResult, TierConfig
from repro.rubbos.interactions import FANOUT_MIX, READ_WRITE_MIX
from repro.rubbos.workload import WorkloadSpec

# A simulation loads only the simulator: the SysViz baseline, the
# transformer and the warehouse are imported by the builder step that
# uses them.
if TYPE_CHECKING:
    from repro.baselines.sysviz import SysVizTracer
    from repro.warehouse.db import MScopeDB

__all__ = [
    "SCENARIOS",
    "Scenario",
    "RunMetadata",
    "ScenarioRun",
    "scenario_tier_configs",
    "scenario_a",
    "scenario_b",
    "run_scenario",
    "baseline_run",
    "load_warehouse",
    "record_run_metadata",
]

MB = 1024 * 1024


@dataclasses.dataclass(frozen=True, slots=True)
class RunMetadata:
    """A finished run's metadata, detached from its simulation.

    Enough to build, annotate and diagnose the run's warehouse after
    the (large, cyclic) :class:`ScenarioRun` object graph is freed.
    """

    seed: int
    workload_users: int
    duration: Micros
    epoch_us: int
    log_dir: Path | None
    #: ``(hostname, tier, cores, disk bytes/s)`` per tier server.
    hosts: tuple[tuple[str, str, int, int], ...]


@dataclasses.dataclass(slots=True)
class ScenarioRun:
    """One executed scenario and everything observed during it."""

    system: NTierSystem
    result: SystemResult
    faults: list[Fault]
    events: EventMonitorSuite | None
    resources: ResourceMonitorSuite | None
    sysviz: SysVizTracer | None
    log_dir: Path | None
    duration: Micros

    @property
    def epoch_us(self) -> int:
        """Epoch offset for rebasing warehouse timestamps."""
        return self.system.wall_clock.epoch_micros(0)

    @property
    def metadata(self) -> RunMetadata:
        """What a warehouse built from this run records about it."""
        return RunMetadata(
            seed=self.system.config.seed,
            workload_users=self.system.config.workload.users,
            duration=self.duration,
            epoch_us=self.epoch_us,
            log_dir=self.log_dir,
            hosts=tuple(
                (
                    server.node.name,
                    tier,
                    server.node.spec.cores,
                    server.node.spec.disk_bandwidth_bytes_per_sec,
                )
                for tier, server in self.system.servers.items()
            ),
        )


def scenario_tier_configs() -> dict[str, TierConfig]:
    """Deliberately small worker pools, as in the paper's testbed.

    Transient bottlenecks amplify into cross-tier pushback only when
    thread pools can fill during the bottleneck's lifetime.
    """
    return {
        "apache": TierConfig(workers=60),
        "tomcat": TierConfig(workers=24),
        "cjdbc": TierConfig(workers=24),
        "mysql": TierConfig(workers=16),
    }


def _config(
    seed: int,
    log_dir: Path | None,
    tiers: dict[str, TierConfig] | None,
    users: int = 300,
    think_ms: float = 700.0,
    mix_name: str = READ_WRITE_MIX,
    kernel: str = "scalar",
) -> SystemConfig:
    workload = WorkloadSpec(
        users=users, think_time_us=ms(think_ms), ramp_up_us=ms(300),
        mix_name=mix_name,
    )
    config = SystemConfig(
        workload=workload, seed=seed, log_dir=log_dir, kernel=kernel
    )
    if tiers is not None:
        config.tiers = tiers
    return config


def _build(
    config: SystemConfig,
    faults: list[Fault],
    duration: Micros,
    monitor_interval: Micros = ms(50),
    event_monitors: bool = True,
    resource_monitors: bool = True,
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Build the system, attach the monitors, and run it."""
    system = NTierSystem(config, faults=faults)
    events = None
    if event_monitors:
        events = EventMonitorSuite()
        events.attach(system)
    resources = None
    if resource_monitors:
        resources = ResourceMonitorSuite(system, interval_us=monitor_interval)
        resources.start()
    sysviz = None
    if with_sysviz:
        from repro.baselines.sysviz import SysVizTracer

        sysviz = SysVizTracer()
        sysviz.attach(system)
    result = system.run(duration)
    return ScenarioRun(
        system=system,
        result=result,
        faults=faults,
        events=events,
        resources=resources,
        sysviz=sysviz,
        log_dir=config.log_dir,
        duration=duration,
    )


def _log_flush(flush_at: Micros = seconds(2), flush_bytes: int = 30 * MB):
    return [
        DBLogFlushFault(
            start_at=flush_at,
            period=seconds(10),
            flush_bytes=flush_bytes,
            bursts=1,
        )
    ]


def _dirty_pages():
    # The Apache node's dirty level starts near its threshold, so its
    # flusher fires first (first RT peak: Apache queue only); the
    # Tomcat node crosses its higher threshold about a second later
    # (second peak: Apache *and* Tomcat queues — cross-tier
    # amplification).
    return [
        DirtyPageFlushFault(
            tier="apache",
            threshold_bytes=40 * MB,
            low_watermark_bytes=12 * MB,
            dirty_rate_bytes_per_sec=8 * MB,
            initial_dirty_bytes=30 * MB,
        ),
        DirtyPageFlushFault(
            tier="tomcat",
            threshold_bytes=44 * MB,
            low_watermark_bytes=12 * MB,
            dirty_rate_bytes_per_sec=8 * MB,
            initial_dirty_bytes=20 * MB,
        ),
    ]


def scenario_a(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    flush_at: Micros = seconds(2),
    flush_bytes: int = 30 * MB,
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Database-I/O very short bottleneck (Figures 2, 4, 6, 7)."""
    return _build(
        _config(seed, log_dir, scenario_tier_configs(), users, think_ms),
        _log_flush(flush_at, flush_bytes),
        duration,
        monitor_interval,
        with_sysviz=with_sysviz,
    )


def scenario_b(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Dirty-page recycling bottleneck, two staggered peaks (Figure 8)."""
    return _build(
        _config(seed, log_dir, scenario_tier_configs(), users, think_ms),
        _dirty_pages(),
        duration,
        monitor_interval,
        with_sysviz=with_sysviz,
    )


#: The floors most scenarios hold: precision, recall and attribution
#: all at least 0.9 at the gating seed.
_FLOORS = {"precision": 0.9, "recall": 0.9, "attribution": 0.9}
#: Single-episode rows inject once, two seconds into the run (the
#: period only has to outlast it).
_AT, _PERIOD = seconds(2), seconds(10)


@dataclasses.dataclass(frozen=True, slots=True)
class Scenario:
    """One registered fault scenario, declared once."""

    name: str
    description: str
    #: Fresh fault injectors for one run.
    faults: Callable[[], list[Fault]]
    #: Tier sizing replacing :func:`scenario_tier_configs` entries.
    tiers: dict[str, TierConfig] = dataclasses.field(default_factory=dict)
    mix: str = READ_WRITE_MIX
    #: Fast enough for the gating CI job (the rest run nightly).
    fast: bool = False
    #: Accuracy floors the gating/nightly checks assert.
    floors: dict[str, float] = dataclasses.field(
        default_factory=lambda: dict(_FLOORS)
    )


SCENARIOS: dict[str, Scenario] = {
    row.name: row
    for row in (
        Scenario(
            "db_log_flush",
            "database log flush saturates the DB disk (paper §V-A)",
            _log_flush,
            fast=True,
        ),
        Scenario(
            "dirty_page_flush",
            "kernel dirty-page recycling saturates web/app CPUs (paper §V-B)",
            _dirty_pages,
            fast=True,
        ),
        Scenario(
            "jvm_gc",
            "stop-the-world JVM collection on the app tier (§II)",
            lambda: [
                GarbageCollectionFault(
                    "tomcat", _AT, _PERIOD, pause=ms(400), collections=1
                )
            ],
            floors={**_FLOORS, "attribution": 0.5},
        ),
        Scenario(
            "dvfs_slowdown",
            "CPU frequency scaling slows the app tier (§II)",
            lambda: [
                DvfsSlowdownFault(
                    "tomcat", _AT, _PERIOD, slow_duration=ms(600),
                    speed_factor=0.05, episodes=1,
                )
            ],
            floors={**_FLOORS, "attribution": 0.5},
        ),
        Scenario(
            "vm_consolidation",
            "co-located VM steals app-tier CPU (§II)",
            lambda: [
                VmConsolidationFault(
                    "tomcat", _AT, _PERIOD, burst=ms(400), episodes=1
                )
            ],
            floors={**_FLOORS, "attribution": 0.5},
        ),
        Scenario(
            "retry_storm",
            "timeout-retry amplification saturates the app tier",
            lambda: [
                RetryStormFault(
                    "tomcat", _AT, _PERIOD, storm_duration=ms(400), episodes=1
                )
            ],
            fast=True,
        ),
        # The replicated-tier scenario: C-JDBC balances over two
        # database backends and the fault hits only the second
        # (``mysql#2`` → node ``db2``), so a correct diagnosis must
        # blame the *replica address*, not merely "the database tier".
        Scenario(
            "pool_exhaustion",
            "connection-pool exhaustion on one of two MySQL replicas "
            "(replica-level blame)",
            lambda: [
                ConnectionPoolExhaustionFault(
                    "mysql#2", _AT, _PERIOD, hold_duration=ms(450), episodes=1
                )
            ],
            tiers={"mysql": TierConfig(workers=16, replicas=2)},
            fast=True,
        ),
        Scenario(
            "lock_convoy",
            "hot-lock convoy serializes the database tier",
            lambda: [
                LockConvoyFault(
                    "mysql", _AT, _PERIOD, convoy_duration=ms(400), episodes=1
                )
            ],
        ),
        # The fan-out mix over three C-JDBC replicas, so the catalogue
        # also exercises fan-out/fan-in call graphs under a disk-level
        # fault downstream of the join.
        Scenario(
            "cache_stampede",
            "buffer-pool stampede under the fan-out mix over three "
            "C-JDBC replicas",
            lambda: [
                CacheStampedeFault(
                    "mysql", _AT, _PERIOD, stampede_duration=ms(450),
                    episodes=1,
                )
            ],
            tiers={"cjdbc": TierConfig(workers=24, replicas=3)},
            mix=FANOUT_MIX,
        ),
        Scenario(
            "net_jitter",
            "noisy-neighbour network jitter plus CPU steal on the DB",
            lambda: [
                NetworkJitterFault(
                    "mysql", _AT, _PERIOD, jitter_duration=ms(350), episodes=1
                )
            ],
        ),
        Scenario(
            "memory_leak",
            "slow memory leak thrashes reclaim on the middleware",
            lambda: [MemoryLeakFault(tier="cjdbc")],
        ),
    )
}


def run_scenario(
    name: str,
    seed: int,
    log_dir: Path | None,
    kernel: str = "scalar",
) -> ScenarioRun:
    """Run one :data:`SCENARIOS` row for 5 s on the calibrated
    small-pool testbed (300 users, 700 ms think time).

    ``kernel`` picks the :data:`~repro.ntier.system.KERNELS` entry; the
    timeline pins hold both kernels to the same log bytes.
    """
    row = SCENARIOS[name]
    tiers = {**scenario_tier_configs(), **row.tiers}
    return _build(
        _config(seed, log_dir, tiers, mix_name=row.mix, kernel=kernel),
        row.faults(),
        seconds(5),
    )


def baseline_run(
    workload_users: int,
    seed: int = 7,
    think_ms: float = 7_000.0,
    duration: Micros = seconds(8),
    monitors_enabled: bool = True,
    resource_monitors: bool = False,
    log_dir: Path | None = None,
    with_sysviz: bool = False,
    monitor_interval: Micros = ms(50),
) -> ScenarioRun:
    """A healthy full-size run for accuracy/overhead evaluation.

    ``workload_users`` follows the paper's convention: the workload
    *is* the number of concurrent users (RUBBoS think time 7 s).
    """
    return _build(
        # None keeps the default (production-size) tier configs.
        _config(seed, log_dir, None, workload_users, think_ms),
        [],
        duration,
        monitor_interval,
        event_monitors=monitors_enabled,
        resource_monitors=resource_monitors,
        with_sysviz=with_sysviz,
    )


def load_warehouse(
    run: ScenarioRun,
    db: MScopeDB | None = None,
    workdir: Path | None = None,
    jobs: int | None = None,
) -> MScopeDB:
    """Run mScopeDataTransformer over a scenario's native logs.

    Also records the experiment and host metadata in the static
    tables.  Requires the scenario to have been run with ``log_dir``.
    ``jobs`` sets the parse/convert worker-process count (``None``
    uses every core; the warehouse contents are identical either way).
    """
    from repro.transformer.pipeline import MScopeDataTransformer
    from repro.warehouse.db import MScopeDB

    if run.log_dir is None:
        raise ValueError("scenario was run without a log directory")
    if db is None:
        db = MScopeDB()
    transformer = MScopeDataTransformer(db, workdir=workdir, jobs=jobs)
    transformer.transform_directory(run.log_dir)
    record_run_metadata(run.metadata, db)
    return db


def record_run_metadata(meta: RunMetadata, db: MScopeDB) -> None:
    """Record the run's experiment and host metadata in ``db``.

    Shared by :func:`load_warehouse` and the validation harness's
    :class:`~repro.validation.runner.ScenarioRunner`, whose modes build
    their warehouses through different transformer paths.
    """
    db.set_experiment_meta("seed", str(meta.seed))
    db.set_experiment_meta("workload_users", str(meta.workload_users))
    db.set_experiment_meta("duration_us", str(meta.duration))
    db.set_experiment_meta("epoch_us", str(meta.epoch_us))
    for hostname, tier, cores, disk_bandwidth in meta.hosts:
        db.register_host(hostname, tier, cores, disk_bandwidth)
