"""Ablation — native buffered logging vs a synchronous side channel.

The paper's monitors reuse each component's buffered logging facility.
This ablation forces every instrumented log line through a synchronous
write path instead and measures what that costs: far more disk
operations and iowait, and visibly slower requests.
"""

from conftest import report
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec

_EVENT_STREAMS = {
    "apache": "access_log",
    "tomcat": "catalina_log",
    "cjdbc": "controller_log",
    "mysql": "mysql_log",
}


def run_system(sync_logging: bool):
    config = SystemConfig(
        workload=WorkloadSpec(users=150, think_time_us=ms(700), ramp_up_us=ms(200)),
        seed=5,
    )
    system = NTierSystem(config)
    for tier, stream in _EVENT_STREAMS.items():
        system.servers[tier].node.facility(stream, sync=sync_logging)
    EventMonitorSuite().attach(system)
    return system.run(seconds(3))


def test_ablation_logging_backend(benchmark):
    buffered = run_system(sync_logging=False)

    def run_sync():
        return run_system(sync_logging=True)

    synchronous = benchmark.pedantic(run_sync, rounds=1, iterations=1)

    def disk_ops(result):
        return sum(n.disk.write_ops.total for n in result.nodes.values())

    buffered_ops = disk_ops(buffered)
    sync_ops = disk_ops(synchronous)
    rt_buffered = buffered.mean_response_time_ms()
    rt_sync = synchronous.mean_response_time_ms()
    report(
        "Ablation: logging backend",
        f"  buffered: {buffered_ops:8.0f} disk writes, mean RT {rt_buffered:.2f} ms\n"
        f"  sync    : {sync_ops:8.0f} disk writes, mean RT {rt_sync:.2f} ms",
    )
    # The native buffered path batches writes by orders of magnitude.
    assert sync_ops > 20 * buffered_ops
