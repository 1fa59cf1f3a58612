"""Tests for server error containment (crashing handlers answer 500)."""

import pytest

from repro.common.errors import SimulationError
from repro.common.timebase import ms, seconds
from repro.ntier.hooks import TierHook
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec


class ExplodingHook(TierHook):
    """Raises on every Nth arrival — a buggy instrumentation plugin."""

    def __init__(self, every=5):
        self.every = every
        self.seen = 0

    def on_upstream_arrival(self, server, request, boundary):
        self.seen += 1
        if self.seen % self.every == 0:
            raise RuntimeError("instrumentation bug")
        yield from ()


def small_system(seed=2):
    config = SystemConfig(
        workload=WorkloadSpec(users=30, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    return NTierSystem(config)


def test_crashing_hook_does_not_kill_the_run():
    system = small_system()
    hook = ExplodingHook(every=5)
    system.servers["tomcat"].hooks.attach(hook)
    result = system.run(seconds(1))
    # The run survives and clients keep getting answers.
    assert len(result.traces) > 20
    assert all(t.is_complete() for t in result.traces)


def test_errors_are_counted():
    system = small_system()
    system.servers["tomcat"].hooks.attach(ExplodingHook(every=4))
    result = system.run(seconds(1))
    tomcat = result.servers["tomcat"]
    assert tomcat.errors > 0
    assert tomcat.errors < tomcat.completed


def test_error_payload_propagates_upstream():
    system = small_system()
    system.servers["mysql"].hooks.attach(ExplodingHook(every=1))
    result = system.run(ms(600))
    # Every DB query errored; requests still completed end to end.
    assert result.servers["mysql"].errors > 0
    assert all(t.is_complete() for t in result.traces)


def test_worker_pool_not_leaked_by_errors():
    system = small_system()
    system.servers["tomcat"].hooks.attach(ExplodingHook(every=1))
    result = system.run(seconds(1))
    assert result.servers["tomcat"].workers.in_use == 0


def test_simulation_errors_still_propagate():
    class KernelBreaker(TierHook):
        def on_upstream_arrival(self, server, request, boundary):
            raise SimulationError("kernel-level inconsistency")
            yield from ()

    system = small_system()
    system.servers["apache"].hooks.attach(KernelBreaker())
    with pytest.raises(SimulationError):
        system.run(ms(500))
