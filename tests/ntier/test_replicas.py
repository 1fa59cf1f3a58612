"""Tests for replicated tiers (scale-out deployments)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.ntier.system import (
    NTierSystem,
    SystemConfig,
    TierConfig,
    logical_tier,
    tier_address,
)
from repro.rubbos.workload import WorkloadSpec


def replicated_config(seed=8, tomcat_replicas=2, mysql_replicas=2):
    return SystemConfig(
        workload=WorkloadSpec(users=60, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
        tiers={
            "apache": TierConfig(workers=40),
            "tomcat": TierConfig(workers=20, replicas=tomcat_replicas),
            "cjdbc": TierConfig(workers=20),
            "mysql": TierConfig(workers=20, replicas=mysql_replicas),
        },
    )


def test_address_helpers():
    assert tier_address("tomcat", 0) == "tomcat"
    assert tier_address("tomcat", 1) == "tomcat#2"
    assert logical_tier("tomcat#2") == "tomcat"
    assert logical_tier("tomcat") == "tomcat"


def test_replicas_validated():
    config = replicated_config()
    config.tiers["tomcat"] = TierConfig(workers=10, replicas=0)
    with pytest.raises(ConfigError):
        NTierSystem(config)


def test_replicated_build_creates_nodes_and_servers():
    system = NTierSystem(replicated_config())
    assert set(system.servers) == {
        "apache",
        "tomcat",
        "tomcat#2",
        "cjdbc",
        "mysql",
        "mysql#2",
    }
    assert {"app1", "app2", "db1", "db2"} <= set(system.nodes)
    assert len(system.servers_for_tier("tomcat")) == 2
    assert system.node_for_tier("tomcat").name == "app1"


def test_load_balances_across_replicas():
    system = NTierSystem(replicated_config())
    result = system.run(seconds(2))
    served = {
        address: server.completed
        for address, server in system.servers.items()
        if server.tier == "tomcat"
    }
    total = sum(served.values())
    assert total > 50
    # Round-robin: the two replicas serve within a few requests of each
    # other.
    assert abs(served["tomcat"] - served["tomcat#2"]) <= 2


def test_requests_complete_with_replicas():
    system = NTierSystem(replicated_config())
    result = system.run(seconds(2))
    assert result.traces
    for trace in result.traces:
        assert trace.is_complete()
        assert trace.tiers()[0] == "apache"


def test_visit_tier_is_logical_name():
    system = NTierSystem(replicated_config())
    result = system.run(seconds(1))
    tiers = {visit.tier for trace in result.traces for visit in trace.visits}
    assert "tomcat" in tiers
    assert all("#" not in tier for tier in tiers)


def test_replica_visits_recorded_on_distinct_nodes():
    system = NTierSystem(replicated_config())
    result = system.run(seconds(2))
    nodes = {
        visit.node
        for trace in result.traces
        for visit in trace.visits
        if visit.tier == "tomcat"
    }
    assert nodes == {"app1", "app2"}


def test_event_monitors_attach_to_every_replica():
    system = NTierSystem(replicated_config())
    suite = EventMonitorSuite()
    suite.attach(system)
    assert len(suite.monitors) == 6
    result = system.run(seconds(1))
    # Each Tomcat replica writes its own instrumented log on its node.
    for node_name in ("app1", "app2"):
        lines = result.nodes[node_name].facilities["catalina_log"].sink.lines
        assert lines and all("ID=R0A" in line for line in lines)


def test_replicated_apache_balances_clients():
    config = replicated_config()
    config.tiers["apache"] = TierConfig(workers=30, replicas=2)
    system = NTierSystem(config)
    result = system.run(seconds(1))
    served = {
        address: server.completed
        for address, server in system.servers.items()
        if server.tier == "apache"
    }
    assert abs(served["apache"] - served["apache#2"]) <= 2


def test_replicated_logs_transform_per_host(tmp_path):
    from repro.transformer.pipeline import MScopeDataTransformer
    from repro.warehouse.db import MScopeDB

    config = replicated_config()
    config.log_dir = tmp_path / "logs"
    system = NTierSystem(config)
    EventMonitorSuite().attach(system)
    system.run(seconds(1))
    db = MScopeDB()
    MScopeDataTransformer(db).transform_directory(tmp_path / "logs")
    tables = set(db.dynamic_tables())
    assert {"tomcat_events_app1", "tomcat_events_app2"} <= tables
    assert {"mysql_events_db1", "mysql_events_db2"} <= tables


def test_replica_queue_lengths_aggregate():
    from repro.analysis.queues import concurrency_series, spans_from_traces

    system = NTierSystem(replicated_config())
    result = system.run(seconds(2))
    # spans_from_traces keys on the logical tier, so replicas aggregate.
    spans = spans_from_traces(result.traces, "tomcat")
    series = concurrency_series(spans, 0, seconds(2), ms(10))
    assert series.max() >= 1
