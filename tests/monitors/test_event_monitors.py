"""Tests for the event mScopeMonitors."""

from types import SimpleNamespace

import pytest

from repro.common.errors import MonitorError
from repro.common.timebase import ms, seconds
from repro.monitors.event import (
    ApacheMScopeMonitor,
    CjdbcMScopeMonitor,
    EventMonitorSuite,
    MySqlMScopeMonitor,
    TomcatMScopeMonitor,
)
from repro.ntier import NTierSystem, SystemConfig
from repro.ntier.hardware import Cpu
from repro.rubbos import WorkloadSpec
from repro.sim import Engine


def small_system(seed=2):
    config = SystemConfig(
        workload=WorkloadSpec(users=30, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    return NTierSystem(config)


def test_attach_swaps_formatter():
    system = small_system()
    monitor = ApacheMScopeMonitor()
    monitor.attach(system.servers["apache"])
    result = system.run(ms(600))
    lines = result.nodes["web1"].facilities["access_log"].sink.lines
    assert lines and all("?ID=R0A" in line for line in lines)


def test_attach_wrong_tier_rejected():
    system = small_system()
    with pytest.raises(MonitorError):
        ApacheMScopeMonitor().attach(system.servers["tomcat"])


def test_double_attach_rejected():
    system = small_system()
    monitor = ApacheMScopeMonitor()
    monitor.attach(system.servers["apache"])
    with pytest.raises(MonitorError):
        monitor.attach(system.servers["apache"])


def test_detach_restores_plain_logging():
    system = small_system()
    monitor = ApacheMScopeMonitor()
    monitor.attach(system.servers["apache"])
    monitor.detach()
    result = system.run(ms(600))
    lines = result.nodes["web1"].facilities["access_log"].sink.lines
    assert lines and all("ID=" not in line for line in lines)


def test_detach_without_attach_rejected():
    with pytest.raises(MonitorError):
        ApacheMScopeMonitor().detach()


def test_negative_cost_rejected():
    with pytest.raises(MonitorError):
        ApacheMScopeMonitor(per_event_cpu_us=-1)


def test_instrumentation_charges_system_cpu():
    instrumented = small_system(seed=2)
    EventMonitorSuite().attach(instrumented)
    result_on = instrumented.run(seconds(1))
    plain = small_system(seed=2)
    result_off = plain.run(seconds(1))
    on = result_on.nodes["app1"].cpu.accounting["system"].total
    off = result_off.nodes["app1"].cpu.accounting["system"].total
    assert on > off


def test_instrumentation_adds_latency():
    instrumented = small_system(seed=2)
    EventMonitorSuite().attach(instrumented)
    rt_on = instrumented.run(seconds(1)).mean_response_time_ms()
    rt_off = small_system(seed=2).run(seconds(1)).mean_response_time_ms()
    assert 0.2 < rt_on - rt_off < 5.0


def test_mysql_monitor_logs_id_comment():
    system = small_system()
    MySqlMScopeMonitor().attach(system.servers["mysql"])
    result = system.run(ms(800))
    lines = result.nodes["db1"].facilities["mysql_log"].sink.lines
    assert lines and all("/*ID=R0A" in line for line in lines)


def test_cjdbc_monitor_logs_boundaries():
    system = small_system()
    CjdbcMScopeMonitor().attach(system.servers["cjdbc"])
    result = system.run(ms(800))
    lines = result.nodes["mid1"].facilities["controller_log"].sink.lines
    assert lines and all("req=R0A" in line and "ua=" in line for line in lines)


def test_tomcat_monitor_logs_query_count():
    system = small_system()
    TomcatMScopeMonitor().attach(system.servers["tomcat"])
    result = system.run(ms(800))
    lines = result.nodes["app1"].facilities["catalina_log"].sink.lines
    assert lines and all("queries=" in line for line in lines)


def test_suite_attach_detach_cycle():
    system = small_system()
    suite = EventMonitorSuite()
    suite.attach(system)
    assert suite.attached
    with pytest.raises(MonitorError):
        suite.attach(system)
    suite.detach()
    assert not suite.attached
    with pytest.raises(MonitorError):
        suite.detach()


def test_suite_covers_all_tiers():
    system = small_system()
    suite = EventMonitorSuite()
    suite.attach(system)
    assert set(suite.monitors) == {"apache", "tomcat", "cjdbc", "mysql"}
    assert suite.monitor_for("apache").tier == "apache"


def test_instrumented_logs_roughly_double_bytes():
    instrumented = small_system(seed=2)
    EventMonitorSuite().attach(instrumented)
    on = instrumented.run(seconds(1))
    off = small_system(seed=2).run(seconds(1))
    bytes_on = on.nodes["web1"].facilities["access_log"].bytes_written.total
    bytes_off = off.nodes["web1"].facilities["access_log"].bytes_written.total
    assert 1.5 < bytes_on / bytes_off < 3.0


def test_wait_cost_adds_latency_not_cpu():
    """The lock/IO wait component lengthens requests without burning CPU."""
    from repro.monitors.event import ApacheMScopeMonitor

    base = small_system(seed=3)
    rt_base = base.run(seconds(1)).mean_response_time_ms()

    waity = small_system(seed=3)
    ApacheMScopeMonitor(per_event_cpu_us=0, per_event_wait_us=500).attach(
        waity.servers["apache"]
    )
    result = waity.run(seconds(1))
    rt_waity = result.mean_response_time_ms()
    # 4 hook points x 500 us of pure wait = ~2 ms of extra latency...
    assert 1.0 < rt_waity - rt_base < 3.5
    # ...with no instrumentation CPU charged.
    base_system_cpu = base.nodes["web1"].cpu.accounting["system"].total
    waity_system_cpu = result.nodes["web1"].cpu.accounting["system"].total
    assert abs(waity_system_cpu - base_system_cpu) < base_system_cpu * 0.5 + 1000


def test_cpu_cost_without_wait():
    from repro.monitors.event import ApacheMScopeMonitor

    system = small_system(seed=3)
    ApacheMScopeMonitor(per_event_cpu_us=100, per_event_wait_us=0).attach(
        system.servers["apache"]
    )
    result = system.run(seconds(1))
    system_cpu = result.nodes["web1"].cpu.accounting["system"].total
    # 4 hook points x 100 us per request, plus log-write charges.
    assert system_cpu >= 400 * len(result.traces)


def _stub_server():
    """Just what a hook's cost model touches: ``server.node.cpu/engine``."""
    engine = Engine()
    cpu = Cpu(engine, cores=1)
    return SimpleNamespace(node=SimpleNamespace(engine=engine, cpu=cpu))


def _boundary_cost(monitor, server):
    """Run one upstream-arrival hook; return (finish time, system CPU)."""
    engine = server.node.engine
    finished = []

    def handler():
        yield from monitor.on_upstream_arrival(server, None, None)
        finished.append(engine.now)

    engine.process(handler())
    engine.run()
    return finished[0], server.node.cpu.accounting["system"].total


@pytest.mark.parametrize(
    ("cpu_us", "wait_us"), [(10, 60), (0, 60), (10, 0), (0, 0)]
)
def test_boundary_cost_is_cpu_then_wait(cpu_us, wait_us):
    server = _stub_server()
    monitor = ApacheMScopeMonitor(per_event_cpu_us=cpu_us, per_event_wait_us=wait_us)
    assert _boundary_cost(monitor, server) == (cpu_us + wait_us, cpu_us)


def test_zero_cost_boundary_yields_nothing():
    server = _stub_server()
    monitor = ApacheMScopeMonitor(per_event_cpu_us=0, per_event_wait_us=0)
    assert list(monitor.on_upstream_arrival(server, None, None)) == []
    assert server.node.engine.peek() is None


def test_tomcat_downstream_boundary_charges_the_extra_thread():
    server = _stub_server()
    monitor = TomcatMScopeMonitor(
        per_event_cpu_us=12, per_event_wait_us=120, downstream_thread_cpu_us=15
    )
    engine = server.node.engine

    def handler():
        yield from monitor.on_downstream_sending(server, None, "cjdbc")

    engine.process(handler())
    engine.run()
    assert engine.now == 12 + 15 + 120
    assert server.node.cpu.accounting["system"].total == 27


@pytest.mark.parametrize("wait_us", [0, 60])
def test_boundary_cost_is_one_event(wait_us):
    """Slice and stall are one chained event: the request resumes once."""
    server = _stub_server()
    monitor = ApacheMScopeMonitor(per_event_cpu_us=10, per_event_wait_us=wait_us)
    assert len(list(monitor.on_upstream_arrival(server, None, None))) == 1
    server.node.engine.run()
    assert server.node.engine.now == 10 + wait_us
