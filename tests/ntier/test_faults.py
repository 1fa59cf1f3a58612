"""Tests for the VSB fault injectors."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.ntier.faults import (
    DBLogFlushFault,
    DirtyPageFlushFault,
    DvfsSlowdownFault,
    GarbageCollectionFault,
    VmConsolidationFault,
)
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec

MB = 1024 * 1024


def build_system(faults, users=60, seed=4):
    config = SystemConfig(
        workload=WorkloadSpec(users=users, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    return NTierSystem(config, faults=faults)


# ----------------------------------------------------------------------
# DBLogFlushFault


def test_db_flush_validation():
    with pytest.raises(ConfigError):
        DBLogFlushFault(start_at=0, period=0)
    with pytest.raises(ConfigError):
        DBLogFlushFault(start_at=0, period=100, flush_bytes=0)


def test_db_flush_saturates_disk_in_window():
    fault = DBLogFlushFault(
        start_at=seconds(1), period=seconds(5), flush_bytes=20 * MB, bursts=1
    )
    system = build_system([fault])
    result = system.run(seconds(3))
    assert fault.flush_times == [seconds(1)]
    db_disk = result.nodes["db1"].disk
    # ~20 MB at 100 MB/s = ~200 ms of saturation starting at t=1s.
    assert db_disk.utilization(seconds(1), seconds(1) + ms(200)) > 0.9
    assert db_disk.utilization(0, seconds(1)) < 0.2


def test_db_flush_respects_burst_count():
    fault = DBLogFlushFault(
        start_at=ms(500), period=ms(600), flush_bytes=5 * MB, bursts=3
    )
    system = build_system([fault])
    system.run(seconds(4))
    assert len(fault.flush_times) == 3


def test_db_flush_blocks_commits():
    fault = DBLogFlushFault(
        start_at=seconds(1), period=seconds(5), flush_bytes=20 * MB, bursts=1
    )
    system = build_system([fault], users=120)
    result = system.run(seconds(3))
    writes = [
        t
        for t in result.traces
        if t.interaction.startswith("Store")
        and seconds(1) <= t.client_receive <= seconds(1) + ms(400)
    ]
    if writes:  # the mix is read-heavy; writes may be absent in short runs
        assert max(t.response_time_ms() for t in writes) > 50


# ----------------------------------------------------------------------
# DirtyPageFlushFault


def test_dirty_fault_validation():
    with pytest.raises(ConfigError):
        DirtyPageFlushFault("apache", threshold_bytes=10, low_watermark_bytes=10)
    with pytest.raises(ConfigError):
        DirtyPageFlushFault("apache", chunk_bytes=0)


def test_dirty_fault_drains_to_low_watermark():
    fault = DirtyPageFlushFault(
        tier="apache",
        threshold_bytes=20 * MB,
        low_watermark_bytes=4 * MB,
        dirty_rate_bytes_per_sec=0,
        initial_dirty_bytes=22 * MB,
    )
    system = build_system([fault], users=20)
    result = system.run(seconds(2))
    assert len(fault.burst_windows) == 1
    web = result.nodes["web1"]
    assert web.page_cache.dirty_bytes <= 5 * MB


def test_dirty_fault_saturates_cpu_during_burst():
    fault = DirtyPageFlushFault(
        tier="apache",
        threshold_bytes=20 * MB,
        low_watermark_bytes=4 * MB,
        dirty_rate_bytes_per_sec=0,
        initial_dirty_bytes=22 * MB,
    )
    system = build_system([fault], users=20)
    result = system.run(seconds(2))
    start, stop = fault.burst_windows[0]
    assert result.nodes["web1"].cpu.utilization(start, stop) > 0.95
    # Recycling is CPU work, not disk traffic.
    assert result.nodes["web1"].disk.utilization(start, stop) < 0.2


def test_dirty_fault_background_dirtier_triggers_eventually():
    fault = DirtyPageFlushFault(
        tier="tomcat",
        threshold_bytes=4 * MB,
        low_watermark_bytes=1 * MB,
        dirty_rate_bytes_per_sec=8 * MB,
        initial_dirty_bytes=0,
    )
    system = build_system([fault], users=20)
    system.run(seconds(2))
    assert len(fault.burst_windows) >= 1
    # First crossing after ~0.5 s of dirtying.
    assert fault.burst_windows[0][0] >= ms(400)


# ----------------------------------------------------------------------
# GarbageCollectionFault


def test_gc_fault_validation():
    with pytest.raises(ConfigError):
        GarbageCollectionFault("tomcat", start_at=0, period=0)


def test_gc_pause_blocks_tier():
    fault = GarbageCollectionFault(
        "tomcat", start_at=seconds(1), period=seconds(5), pause=ms(300), collections=1
    )
    system = build_system([fault], users=60)
    result = system.run(seconds(3))
    assert len(fault.pause_windows) == 1
    start, stop = fault.pause_windows[0]
    assert stop - start >= ms(300)
    assert result.nodes["app1"].cpu.utilization(start, stop) > 0.95
    # Requests stall during the pause and recover after.
    slow = [
        t
        for t in result.traces
        if start <= t.client_receive <= stop + ms(500)
        and t.response_time_ms() > 100
    ]
    assert slow, "GC pause produced no slow requests"


# ----------------------------------------------------------------------
# Counts


@pytest.mark.parametrize(
    "build",
    [
        lambda: DBLogFlushFault(start_at=0, period=100, bursts="2"),
        lambda: GarbageCollectionFault("tomcat", 0, 100, collections=0),
        lambda: DvfsSlowdownFault("apache", 0, 100, episodes=True),
        lambda: VmConsolidationFault("mysql", 0, 100, stolen_cores="2"),
    ],
    ids=["string-bursts", "zero-collections", "bool-episodes", "string-cores"],
)
def test_malformed_fault_counts_raise_config_error(build):
    """A bad count is a config error at construction, not a TypeError
    from inside the simulation."""
    with pytest.raises(ConfigError, match="must be an integer"):
        build()
