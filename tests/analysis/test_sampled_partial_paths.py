"""Regression: head-sampled fan-in joins must degrade, not crash.

Head sampling keeps or drops a request *coherently*, so a sampled
warehouse holds whole-request slices — including replica event tables
sampling left with **zero** rows, and (when a replica's log never got
ingested, or the tier mapping was discovered on a different warehouse)
tables that do not exist at all.  Reconstruction against such a
mapping used to die in ``MScopeDB.table_schema`` with ``QueryError:
no such table``; ``_hop_selects`` must treat a missing branch as "no
events here" and yield the partial path.
"""

import pytest

from repro.analysis.causal import (
    discover_tier_tables,
    reconstruct_path,
    reconstruct_paths_bulk,
)
from repro.common.errors import AnalysisError
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig
from repro.rubbos.interactions import FANOUT_MIX
from repro.rubbos.workload import WorkloadSpec
from repro.sampling.policy import coherent_keep
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

SEED = 32
RATE = 0.1


def _path_key(path):
    return (path.request_id, path.hops)


@pytest.fixture(scope="module")
def fanout_run(tmp_path_factory):
    """A fan-out workload over replicated cjdbc and mysql tiers,
    ingested under ``head:0.1``."""
    log_dir = tmp_path_factory.mktemp("fanout-logs")
    config = SystemConfig(
        workload=WorkloadSpec(
            users=8,
            think_time_us=ms(400),
            ramp_up_us=ms(100),
            mix_name=FANOUT_MIX,
        ),
        seed=SEED,
        log_dir=log_dir,
        dispatch="seeded-random",
        tiers={
            "apache": TierConfig(workers=24),
            "tomcat": TierConfig(workers=12),
            "cjdbc": TierConfig(workers=12, replicas=3),
            "mysql": TierConfig(workers=12, replicas=4),
        },
    )
    system = NTierSystem(config)
    EventMonitorSuite().attach(system)
    result = system.run(seconds(2))
    sampled = MScopeDB()
    MScopeDataTransformer(
        sampled, jobs=1, sampling=f"head:{RATE}"
    ).transform_directory(log_dir)
    yield result, sampled
    sampled.close()


def test_sampling_left_an_empty_replica_table(fanout_run):
    """Precondition: at this seed sampling really does starve a
    replica — its table exists with zero rows, so the join must cope
    with branches that have no events."""
    _, sampled = fanout_run
    tables = discover_tier_tables(sampled)
    assert len(tables["mysql"]) == 4
    counts = {table: sampled.row_count(table) for table in tables["mysql"]}
    assert 0 in counts.values(), counts


def test_bulk_join_survives_a_mapping_with_absent_tables(fanout_run):
    result, sampled = fanout_run
    ids = [trace.request_id for trace in result.traces]
    kept = {rid for rid in ids if coherent_keep(rid, RATE)}
    assert kept, "no request survived sampling; pick another seed"
    baseline = [
        _path_key(p)
        for p in reconstruct_paths_bulk(
            sampled, ids, discover_tier_tables(sampled)
        )
    ]
    # A cached/stale mapping lists replicas this warehouse has no
    # table for (their logs never got ingested).  The join must skip
    # them, not crash — and the surviving paths must be unchanged.
    stale = discover_tier_tables(sampled)
    stale["mysql"] = list(stale["mysql"]) + ["mysql_events_db9"]
    stale["cjdbc"] = list(stale["cjdbc"]) + ["cjdbc_events_mid9"]
    paths = list(reconstruct_paths_bulk(sampled, ids, stale))
    assert [_path_key(p) for p in paths] == baseline
    assert {p.request_id for p in paths} == kept
    # The fan-out requests still fan-in across every tier they kept
    # events on, and the joined paths stay causally consistent.
    assert any(
        {hop.tier for hop in p.hops}
        == {"apache", "tomcat", "cjdbc", "mysql"}
        for p in paths
    )
    for path in paths:
        path.validate_happens_before()


def test_scalar_join_survives_a_mapping_with_absent_tables(fanout_run):
    result, sampled = fanout_run
    kept = [
        trace.request_id
        for trace in result.traces
        if coherent_keep(trace.request_id, RATE)
    ]
    stale = discover_tier_tables(sampled)
    stale["mysql"] = list(stale["mysql"]) + ["mysql_events_db9"]
    path = reconstruct_path(sampled, kept[0], stale)
    assert path.hops
    assert all(hop.host != "db9" for hop in path.hops)


def test_mapping_of_only_absent_tables_is_a_clean_miss(fanout_run):
    """When *no* listed table exists the request is simply not found —
    the same error as an unknown id, never a QueryError."""
    _, sampled = fanout_run
    ghost = {"mysql": ["mysql_events_db9"]}
    assert list(reconstruct_paths_bulk(sampled, ["R0A000000003"], ghost)) == []
    with pytest.raises(AnalysisError, match="not found"):
        reconstruct_path(sampled, "R0A000000003", ghost)


def test_zero_row_replica_contributes_no_hops(fanout_run):
    """The starved replica's (existing, empty) table joins cleanly:
    no path may claim a visit to a host that recorded nothing."""
    result, sampled = fanout_run
    tables = discover_tier_tables(sampled)
    empty_hosts = {
        table.partition("_events_")[2]
        for tier_tables in tables.values()
        for table in tier_tables
        if sampled.row_count(table) == 0
    }
    assert empty_hosts
    ids = [trace.request_id for trace in result.traces]
    for path in reconstruct_paths_bulk(sampled, ids, tables):
        assert not ({hop.host for hop in path.hops} & empty_hosts)
