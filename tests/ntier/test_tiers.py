"""Unit tests of per-tier behaviour (Apache/Tomcat/C-JDBC/MySQL)."""

import pytest

from repro.common.timebase import ms, seconds
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec
from repro.rubbos.interactions import interaction_by_name


def run_small(seed=2, duration=seconds(2), users=30):
    config = SystemConfig(
        workload=WorkloadSpec(users=users, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    system = NTierSystem(config)
    return system, system.run(duration)


@pytest.fixture(scope="module")
def small_run():
    return run_small()


def test_apache_visit_brackets_everything(small_run):
    _, result = small_run
    for trace in result.traces:
        apache = trace.visits_for("apache")[0]
        assert apache.upstream_arrival == min(
            v.upstream_arrival for v in trace.visits
        )
        assert apache.upstream_departure == max(
            v.upstream_departure for v in trace.visits
        )


def test_tomcat_issues_declared_query_count(small_run):
    _, result = small_run
    for trace in result.traces:
        interaction = interaction_by_name(trace.interaction)
        tomcat = trace.visits_for("tomcat")[0]
        assert len(tomcat.downstream_calls) == interaction.total_queries()
        assert len(trace.visits_for("cjdbc")) == interaction.total_queries()
        assert len(trace.visits_for("mysql")) == interaction.total_queries()


def test_queries_are_sequential_not_parallel(small_run):
    _, result = small_run
    for trace in result.traces:
        calls = trace.visits_for("tomcat")[0].downstream_calls
        for earlier, later in zip(calls, calls[1:]):
            assert earlier.receiving <= later.sending


def test_zero_query_interactions_skip_the_database(small_run):
    _, result = small_run
    forms = [t for t in result.traces if t.interaction in ("Register", "Search")]
    if not forms:
        pytest.skip("no form-only interactions sampled in this short run")
    for trace in forms:
        assert trace.visits_for("mysql") == []
        assert trace.tiers() == ["apache", "tomcat"]


def test_mysql_write_queries_touch_disk(small_run):
    system, result = small_run
    db_disk = system.nodes["db1"].disk
    writes = sum(
        1
        for t in result.traces
        for q in interaction_by_name(t.interaction).queries
        if q.is_write
    )
    if writes == 0:
        pytest.skip("no write interactions sampled")
    # Every write commits synchronously: at least one disk write per
    # write query (log flushes add more).
    assert db_disk.write_ops.total >= writes


def test_mysql_read_misses_follow_miss_ratio():
    # Force a high miss ratio by running long enough to collect stats.
    system, result = run_small(seed=5, duration=seconds(4), users=60)
    db_disk = system.nodes["db1"].disk
    total_queries = sum(len(t.visits_for("mysql")) for t in result.traces)
    reads = db_disk.read_ops.total
    # Catalog-wide miss ratios are 5-15%; the observed rate must be in
    # a plausible band (binomial noise included).
    assert 0.01 < reads / total_queries < 0.20


def test_commit_barrier_released_after_flush():
    from repro.ntier.faults import DBLogFlushFault

    config = SystemConfig(
        workload=WorkloadSpec(users=60, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=4,
    )
    fault = DBLogFlushFault(
        start_at=ms(500), period=seconds(5), flush_bytes=10 * 1024 * 1024,
        bursts=1,
    )
    system = NTierSystem(config, faults=[fault])
    result = system.run(seconds(2))
    mysql = system.servers["mysql"]
    # After the flush the barrier is cleared and writes proceed normally.
    assert mysql._log_flush_barrier is None
    late_writes = [
        t
        for t in result.traces
        if t.interaction.startswith("Store") and t.client_receive > seconds(1)
    ]
    if late_writes:
        assert min(t.response_time_ms() for t in late_writes) < 50


def test_response_bytes_vary_by_interaction(small_run):
    _, result = small_run
    view = interaction_by_name("ViewStory")
    search_form = interaction_by_name("Search")
    assert view.response_bytes > search_form.response_bytes


def test_cjdbc_routes_every_query_downstream(small_run):
    _, result = small_run
    for trace in result.traces:
        for visit in trace.visits_for("cjdbc"):
            assert len(visit.downstream_calls) == 1
            assert visit.downstream_calls[0].target_tier == "mysql"
