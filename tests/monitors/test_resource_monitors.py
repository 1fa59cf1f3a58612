"""Tests for the resource mScopeMonitors."""

import pytest

from repro.common.errors import MonitorError
from repro.common.timebase import ms, seconds
from repro.monitors.resource.collectl import CollectlMonitor
from repro.monitors.resource.iostat import IostatMonitor
from repro.monitors.resource.sar import SarMonitor
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec


def small_system(seed=2):
    config = SystemConfig(
        workload=WorkloadSpec(users=30, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    return NTierSystem(config)


def run_with(monitor_factory, duration=seconds(1)):
    system = small_system()
    monitor = monitor_factory(system)
    monitor.start()
    system.run(duration)
    monitor.finalize()
    return system, monitor


def test_sampling_interval_respected():
    system, monitor = run_with(
        lambda s: SarMonitor(s.nodes["web1"], s.wall_clock, interval_us=ms(100))
    )
    # 1 s at 100 ms intervals -> ~10 samples.
    assert 8 <= len(monitor.samples) <= 10
    intervals = {s.interval for s in monitor.samples}
    assert intervals == {ms(100)}


def test_invalid_interval_rejected():
    system = small_system()
    with pytest.raises(MonitorError):
        SarMonitor(system.nodes["web1"], system.wall_clock, interval_us=0)


def test_sar_text_structure():
    system, monitor = run_with(
        lambda s: SarMonitor(s.nodes["web1"], s.wall_clock, interval_us=ms(50))
    )
    lines = monitor.facility.sink.lines
    assert lines[0].startswith("Linux")
    assert any("%user" in line for line in lines)
    assert lines[-1].startswith("Average:")


def test_sar_xml_structure():
    import xml.etree.ElementTree as ET

    system, monitor = run_with(
        lambda s: SarMonitor(
            s.nodes["web1"], s.wall_clock, interval_us=ms(50), mode="xml"
        )
    )
    text = monitor.facility.sink.text()
    root = ET.fromstring(text)
    assert root.tag == "sysstat"
    assert len(root.findall(".//timestamp")) == len(monitor.samples)


def test_sar_bad_mode_rejected():
    system = small_system()
    with pytest.raises(MonitorError):
        SarMonitor(system.nodes["web1"], system.wall_clock, mode="json")


def test_iostat_blocks_per_sample():
    system, monitor = run_with(
        lambda s: IostatMonitor(s.nodes["db1"], s.wall_clock, interval_us=ms(100))
    )
    lines = monitor.facility.sink.lines
    headers = [l for l in lines if l.startswith("Device:")]
    assert len(headers) == len(monitor.samples)


def test_collectl_csv_has_header_once():
    system, monitor = run_with(
        lambda s: CollectlMonitor(s.nodes["app1"], s.wall_clock, interval_us=ms(50))
    )
    lines = monitor.facility.sink.lines
    headers = [l for l in lines if l.startswith("#")]
    assert len(headers) == 1
    assert len(lines) == len(monitor.samples) + 1


def test_collectl_metrics_complete():
    system, monitor = run_with(
        lambda s: CollectlMonitor(s.nodes["app1"], s.wall_clock, interval_us=ms(50))
    )
    sample = monitor.samples[5]
    for key in (
        "cpu_user_pct",
        "cpu_system_pct",
        "cpu_iowait_pct",
        "disk_util_pct",
        "mem_dirty_kb",
    ):
        assert key in sample.metrics


def test_cpu_metrics_match_ground_truth():
    system, monitor = run_with(
        lambda s: CollectlMonitor(s.nodes["app1"], s.wall_clock, interval_us=ms(100))
    )
    node = system.nodes["app1"]
    sample = monitor.samples[-1]
    start = sample.timestamp - sample.interval
    expected = node.cpu.category_pct("user", start, sample.timestamp)
    assert sample.metrics["cpu_user_pct"] == pytest.approx(expected)


def test_monitor_start_idempotent():
    system = small_system()
    monitor = SarMonitor(system.nodes["web1"], system.wall_clock, interval_us=ms(100))
    monitor.start()
    monitor.start()
    system.run(seconds(1))
    assert 8 <= len(monitor.samples) <= 10


def test_finalize_idempotent():
    system, monitor = run_with(
        lambda s: SarMonitor(s.nodes["web1"], s.wall_clock, interval_us=ms(100))
    )
    before = len(monitor.facility.sink.lines)
    monitor.finalize()
    assert len(monitor.facility.sink.lines) == before


def test_suite_deploys_per_node():
    system = small_system()
    suite = ResourceMonitorSuite(system, interval_us=ms(100))
    suite.start()
    system.run(seconds(1))
    assert len(suite.monitors) == 12  # 3 monitors x 4 nodes
    assert len(suite.by_node("web1")) == 3
    assert len(suite.by_kind("collectl")) == 4


def test_suite_finalizes_through_system():
    system = small_system()
    suite = ResourceMonitorSuite(system, interval_us=ms(100))
    suite.start()
    system.run(seconds(1))  # system.run calls the registered finalizer
    sar = suite.by_kind("sar")[0]
    assert sar.facility.sink.lines[-1].startswith("Average:")


def test_monitor_overhead_is_charged():
    system, monitor = run_with(
        lambda s: CollectlMonitor(
            s.nodes["web1"], s.wall_clock, interval_us=ms(50), cpu_us_per_sample=80
        )
    )
    system_cpu = system.nodes["web1"].cpu.accounting["system"].total
    assert system_cpu >= 80 * (len(monitor.samples) - 1)
