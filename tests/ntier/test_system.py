"""Tests for system assembly, request flow, and determinism."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig
from repro.ntier.tiers import TIER_ORDER
from repro.rubbos.workload import WorkloadSpec


def small_config(**kwargs):
    defaults = dict(
        workload=WorkloadSpec(users=40, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=11,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def test_missing_tier_config_rejected():
    config = small_config()
    del config.tiers["mysql"]
    with pytest.raises(ConfigError):
        NTierSystem(config)


def test_invalid_workers_rejected():
    config = small_config()
    config.tiers["apache"] = TierConfig(workers=0)
    with pytest.raises(ConfigError):
        NTierSystem(config)


def test_node_for_tier_mapping():
    system = NTierSystem(small_config())
    assert system.node_for_tier("apache").name == "web1"
    assert system.node_for_tier("mysql").name == "db1"
    with pytest.raises(ConfigError):
        system.node_for_tier("varnish")


def test_run_produces_complete_traces():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    assert len(result.traces) > 20
    for trace in result.traces:
        assert trace.is_complete()
        tiers = trace.tiers()
        assert tiers[0] == "apache"
        # Every request at minimum hits Apache and Tomcat.
        assert "tomcat" in tiers


def test_requests_traverse_all_four_tiers():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    with_queries = [t for t in result.traces if len(t.visits_for("mysql")) > 0]
    assert with_queries, "no request reached the database tier"
    trace = with_queries[0]
    assert set(trace.tiers()) == set(TIER_ORDER)


def test_visit_nesting_is_causal():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    for trace in result.traces:
        apache = trace.visits_for("apache")[0]
        for visit in trace.visits:
            assert visit.upstream_arrival >= apache.upstream_arrival
            assert visit.upstream_departure <= apache.upstream_departure


def test_boundary_timestamps_ordered():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    for trace in result.traces:
        for visit in trace.visits:
            assert visit.upstream_arrival <= visit.upstream_departure
            if visit.downstream_sending is not None:
                assert visit.upstream_arrival <= visit.downstream_sending
                assert visit.downstream_sending <= visit.downstream_receiving
                assert visit.downstream_receiving <= visit.upstream_departure


def test_cannot_run_twice():
    system = NTierSystem(small_config())
    system.run(seconds(1))
    with pytest.raises(ConfigError):
        system.run(seconds(1))


def test_same_seed_same_results():
    a = NTierSystem(small_config(seed=5)).run(seconds(2))
    b = NTierSystem(small_config(seed=5)).run(seconds(2))
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert ta.request_id == tb.request_id
        assert ta.interaction == tb.interaction
        assert ta.client_send == tb.client_send
        assert ta.client_receive == tb.client_receive


def test_different_seed_different_results():
    a = NTierSystem(small_config(seed=5)).run(seconds(2))
    b = NTierSystem(small_config(seed=6)).run(seconds(2))
    sends_a = [t.client_send for t in a.traces]
    sends_b = [t.client_send for t in b.traces]
    assert sends_a != sends_b


def test_same_seed_byte_identical_logs(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    NTierSystem(small_config(seed=5, log_dir=dir_a)).run(seconds(1))
    NTierSystem(small_config(seed=5, log_dir=dir_b)).run(seconds(1))
    logs_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*.log"))
    logs_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*.log"))
    assert logs_a == logs_b
    for rel in logs_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()


def test_request_ids_unique_and_fixed_width():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    ids = [t.request_id for t in result.traces]
    assert len(set(ids)) == len(ids)
    assert all(len(i) == 12 for i in ids)


def test_throughput_and_response_time_helpers():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    assert result.throughput() > 0
    assert 0 < result.mean_response_time_ms() < 100


def test_server_concurrency_returns_to_zero():
    system = NTierSystem(small_config())
    result = system.run(seconds(2))
    for server in result.servers.values():
        # At the end of the run, in-flight requests may remain, but the
        # series must never go negative.
        values = [v for _, v in server.concurrency.changes()]
        assert min(values) >= 0
