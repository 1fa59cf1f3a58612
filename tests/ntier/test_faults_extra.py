"""Tests for the DVFS and VM-consolidation fault injectors."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.ntier.faults import DvfsSlowdownFault, VmConsolidationFault
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec


def build_system(faults, users=60, seed=4):
    config = SystemConfig(
        workload=WorkloadSpec(users=users, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    return NTierSystem(config, faults=faults)


# ----------------------------------------------------------------------
# DVFS


def test_dvfs_validation():
    with pytest.raises(ConfigError):
        DvfsSlowdownFault("tomcat", start_at=0, period=100, speed_factor=1.5)
    with pytest.raises(ConfigError):
        DvfsSlowdownFault("tomcat", start_at=0, period=0)


def test_dvfs_restores_speed_after_window():
    fault = DvfsSlowdownFault(
        "tomcat",
        start_at=seconds(1),
        period=seconds(5),
        slow_duration=ms(300),
        speed_factor=0.25,
        episodes=1,
    )
    system = build_system([fault])
    result = system.run(seconds(2))
    assert len(fault.slow_windows) == 1
    assert result.servers["tomcat"].node.cpu.speed == 1.0


def test_dvfs_slows_requests_in_window():
    fault = DvfsSlowdownFault(
        "tomcat",
        start_at=seconds(1),
        period=seconds(5),
        slow_duration=ms(400),
        speed_factor=0.15,
        episodes=1,
    )
    system = build_system([fault], users=120)
    result = system.run(seconds(3))
    start, stop = fault.slow_windows[0]
    inside = [
        t.response_time_ms()
        for t in result.traces
        if start <= t.client_receive <= stop + ms(200)
    ]
    before = [
        t.response_time_ms() for t in result.traces if t.client_receive < start
    ]
    assert max(inside) > 3 * (sum(before) / len(before))


def test_dvfs_cpu_busy_time_stretches():
    # At quarter speed, the same demand occupies 4x the wall time.
    from repro.ntier.hardware import Cpu
    from repro.sim.engine import Engine

    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    cpu.speed = 0.25

    def work():
        yield from cpu.consume(1_000, category="user")

    engine.process(work())
    engine.run()
    assert engine.now == 4_000
    assert cpu.accounting["user"].total == 4_000  # wall time, as /proc would


# ----------------------------------------------------------------------
# VM consolidation


def test_vm_fault_validation():
    with pytest.raises(ConfigError):
        VmConsolidationFault("tomcat", start_at=0, period=0)
    with pytest.raises(ConfigError):
        VmConsolidationFault("tomcat", start_at=0, period=100, stolen_cores=-1)


def test_vm_steal_accounted_as_steal():
    fault = VmConsolidationFault(
        "tomcat", start_at=seconds(1), period=seconds(5), burst=ms(300), episodes=1
    )
    system = build_system([fault])
    result = system.run(seconds(2))
    start, stop = fault.steal_windows[0]
    node = result.nodes["app1"]
    assert node.cpu.category_pct("steal", start, stop) > 90
    # Steal is not user or system time.
    assert node.cpu.category_pct("system", start, stop) < 20


def test_vm_steal_blocks_requests():
    fault = VmConsolidationFault(
        "tomcat", start_at=seconds(1), period=seconds(5), burst=ms(300), episodes=1
    )
    system = build_system([fault], users=80)
    result = system.run(seconds(2))
    start, stop = fault.steal_windows[0]
    slow = [
        t
        for t in result.traces
        if start <= t.client_receive <= stop + ms(300)
        and t.response_time_ms() > 100
    ]
    assert slow


def test_vm_partial_steal_leaves_capacity():
    fault = VmConsolidationFault(
        "tomcat",
        start_at=seconds(1),
        period=seconds(5),
        burst=ms(300),
        stolen_cores=2,  # of 4
        episodes=1,
    )
    system = build_system([fault], users=40)
    result = system.run(seconds(2))
    start, stop = fault.steal_windows[0]
    node = result.nodes["app1"]
    steal = node.cpu.category_pct("steal", start, stop)
    assert 40 < steal < 60
    # Requests still complete during the burst (half the cores remain).
    during = [
        t for t in result.traces if start <= t.client_receive <= stop
    ]
    assert during


def test_sar_reports_steal_column():
    from repro.monitors.resource.sar import SarMonitor

    fault = VmConsolidationFault(
        "tomcat", start_at=ms(500), period=seconds(5), burst=ms(300), episodes=1
    )
    system = build_system([fault], users=20)
    monitor = SarMonitor(system.nodes["app1"], system.wall_clock, interval_us=ms(50))
    monitor.start()
    system.run(seconds(1))
    peak_steal = max(s.metrics["cpu_steal_pct"] for s in monitor.samples)
    assert peak_steal > 80
    # ... and it shows up in the rendered text report too.
    steal_values = [
        float(line.split()[6])
        for line in monitor.facility.sink.lines
        if line and line[0].isdigit() and "all" in line
    ]
    assert max(steal_values) > 80
