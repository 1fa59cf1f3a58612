"""Tests for tier-server behaviour: boundaries, hooks, formatters, queues."""

from repro.common.timebase import ms, seconds
from repro.ntier.hooks import TierHook
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig
from repro.rubbos.workload import WorkloadSpec


def small_system(**tier_overrides):
    tiers = {
        "apache": TierConfig(workers=20),
        "tomcat": TierConfig(workers=10),
        "cjdbc": TierConfig(workers=10),
        "mysql": TierConfig(workers=10),
    }
    tiers.update(tier_overrides)
    config = SystemConfig(
        workload=WorkloadSpec(users=30, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=2,
        tiers=tiers,
    )
    return NTierSystem(config)


def test_hooks_fire_in_order():
    system = small_system()
    calls = []

    class Recorder(TierHook):
        def on_upstream_arrival(self, server, request, boundary):
            calls.append(("arrival", request.request_id))
            yield from ()

        def on_downstream_sending(self, server, request, target):
            calls.append(("sending", target))
            yield from ()

        def on_downstream_receiving(self, server, request, target):
            calls.append(("receiving", target))
            yield from ()

        def on_upstream_departure(self, server, request, boundary):
            calls.append(("departure", request.request_id))
            yield from ()

    system.servers["apache"].hooks.attach(Recorder())
    system.run(ms(600))
    kinds = [k for k, _ in calls]
    first_arrival = kinds.index("arrival")
    assert kinds[first_arrival : first_arrival + 4] == [
        "arrival",
        "sending",
        "receiving",
        "departure",
    ]


def test_hook_detach_stops_calls():
    system = small_system()
    calls = []

    class Counter(TierHook):
        def on_upstream_arrival(self, server, request, boundary):
            calls.append(1)
            yield from ()

    hook = Counter()
    dispatcher = system.servers["apache"].hooks
    dispatcher.attach(hook)
    dispatcher.detach(hook)
    system.run(ms(600))
    assert calls == []


def test_formatter_swap_changes_log_output():
    system = small_system()
    server = system.servers["apache"]
    server.set_line_formatter(lambda srv, req, boundary, payload: "CUSTOM")
    result = system.run(ms(600))
    lines = result.nodes["web1"].facilities["access_log"].sink.lines
    assert lines and all(line == "CUSTOM" for line in lines)


def test_formatter_reset_restores_default():
    system = small_system()
    server = system.servers["apache"]
    server.set_line_formatter(lambda srv, req, boundary, payload: "CUSTOM")
    server.reset_line_formatter()
    result = system.run(ms(600))
    lines = result.nodes["web1"].facilities["access_log"].sink.lines
    assert lines and all("GET /rubbos/" in line for line in lines)


def test_formatter_returning_none_suppresses_line():
    system = small_system()
    server = system.servers["apache"]
    server.set_line_formatter(lambda srv, req, boundary, payload: None)
    result = system.run(ms(600))
    assert "access_log" not in result.nodes["web1"].facilities


def test_worker_pool_limits_concurrency():
    system = small_system(apache=TierConfig(workers=2))
    result = system.run(seconds(1))
    workers = result.servers["apache"].workers
    values = [v for _, v in workers.busy_series.changes()]
    assert max(values) <= 2


def test_concurrency_counts_queued_requests():
    # With one worker, arrivals stack up in the concurrency series even
    # though only one request is in service.
    system = small_system(apache=TierConfig(workers=1))
    result = system.run(seconds(1))
    series = result.servers["apache"].concurrency
    values = [v for _, v in series.changes()]
    assert max(values) > 1


def test_server_throughput_counts_completions():
    system = small_system()
    result = system.run(seconds(1))
    apache = result.servers["apache"]
    assert apache.completed == len(result.traces)
    assert apache.completed > 0


def test_start_idempotent():
    system = small_system()
    system.servers["apache"].start()
    system.servers["apache"].start()
    result = system.run(ms(500))
    # Double-start must not duplicate the listener (each message served once).
    assert result.servers["apache"].completed == len(result.traces)
