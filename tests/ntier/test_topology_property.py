"""Property: replicated topologies keep causal paths replica-coherent.

Sticky dispatch pins a request (and, under fan-out, each branch) to
one downstream replica, so on the sequential interaction mix every
reconstructed causal path must visit **exactly one replica per logical
tier** — whatever the replica counts, dispatch policy, and seed.  And
whatever diagnosis concludes about a faulted replicated tier, blame
must never name a replica that served nothing during the anomaly:
every root-cause hostname must have event rows inside (a widened copy
of) the diagnosed window.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.causal import discover_tier_tables, reconstruct_paths_bulk
from repro.analysis.diagnosis import Diagnoser
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.balancer import DISPATCH_POLICIES
from repro.ntier.faults import CacheStampedeFault
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig, tier_address
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB, quote_identifier

#: Hosts a replicated tier may legitimately appear on.
_NODE_PREFIX = {"apache": "web", "tomcat": "app", "cjdbc": "mid", "mysql": "db"}


def _build_system(log_dir, *, seed, policy, replicas, users, faults=()):
    tiers = {
        "apache": TierConfig(workers=40),
        "tomcat": TierConfig(workers=16, replicas=replicas.get("tomcat", 1)),
        "cjdbc": TierConfig(workers=16, replicas=replicas.get("cjdbc", 1)),
        "mysql": TierConfig(workers=16, replicas=replicas.get("mysql", 1)),
    }
    config = SystemConfig(
        workload=WorkloadSpec(
            users=users, think_time_us=ms(300), ramp_up_us=ms(150)
        ),
        seed=seed,
        log_dir=log_dir,
        dispatch=policy,
        tiers=tiers,
    )
    return NTierSystem(config, faults=list(faults))


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tomcat_replicas=st.integers(min_value=1, max_value=4),
    mysql_replicas=st.integers(min_value=1, max_value=4),
    policy=st.sampled_from(DISPATCH_POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_path_visits_one_replica_per_tier(
    tmp_path_factory, tomcat_replicas, mysql_replicas, policy, seed
):
    log_dir = tmp_path_factory.mktemp("topology-prop")
    system = _build_system(
        log_dir,
        seed=seed,
        policy=policy,
        replicas={"tomcat": tomcat_replicas, "mysql": mysql_replicas},
        users=30,
    )
    EventMonitorSuite().attach(system)
    result = system.run(ms(1500))
    assert result.traces
    expected = {
        "tomcat": {f"app{i + 1}" for i in range(tomcat_replicas)},
        "mysql": {f"db{i + 1}" for i in range(mysql_replicas)},
    }
    with MScopeDB() as db:
        MScopeDataTransformer(db, jobs=1).transform_directory(log_dir)
        tables = discover_tier_tables(db)
        ids = [trace.request_id for trace in result.traces]
        paths = list(reconstruct_paths_bulk(db, ids, tables))
    assert paths
    for path in paths:
        visited = path.hosts_per_tier()
        for tier, hosts in visited.items():
            assert len(hosts) == 1, (
                f"{path.request_id} visited {sorted(hosts)} on {tier} "
                f"under {policy}"
            )
            assert hosts <= expected.get(tier, hosts)


def _events_in_window(db, tables, hostname, lo, hi):
    total = 0
    for replica_tables in tables.values():
        for table in replica_tables:
            if not table.endswith(f"_events_{hostname}"):
                continue
            ((count,),) = db.query(
                f"SELECT COUNT(*) FROM {quote_identifier(table)} "
                f"WHERE upstream_arrival_us BETWEEN ? AND ?",
                (lo, hi),
            )
            total += count
    return total


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    mysql_replicas=st.integers(min_value=2, max_value=4),
    policy=st.sampled_from(DISPATCH_POLICIES),
    seed=st.integers(min_value=0, max_value=2**10),
)
def test_blame_never_names_an_idle_replica(
    tmp_path_factory, mysql_replicas, policy, seed
):
    """Whatever replica the stampede hits, every blamed hostname must
    have served requests inside the (queue-drain-widened) window."""
    log_dir = tmp_path_factory.mktemp("blame-prop")
    faulted = tier_address("mysql", mysql_replicas - 1)
    fault = CacheStampedeFault(
        tier=faulted, start_at=seconds(1), period=seconds(10), episodes=1
    )
    system = _build_system(
        log_dir,
        seed=seed,
        policy=policy,
        replicas={"mysql": mysql_replicas},
        users=120,
        faults=[fault],
    )
    EventMonitorSuite().attach(system)
    ResourceMonitorSuite(system, interval_us=ms(50))
    system.run(seconds(3))
    epoch_us = system.wall_clock.epoch_micros(0)
    with MScopeDB() as db:
        MScopeDataTransformer(db, jobs=1).transform_directory(log_dir)
        tables = discover_tier_tables(db)
        reports = Diagnoser(db, epoch_us=epoch_us).diagnose()
        for report in reports:
            # Queue drain means windows legitimately trail the load
            # that caused them; widen before demanding events.
            lo = epoch_us + report.window.start - seconds(2)
            hi = epoch_us + report.window.stop + seconds(2)
            for cause in report.causes:
                assert _events_in_window(db, tables, cause.hostname, lo, hi), (
                    f"{cause.kind} blames {cause.hostname}, which served "
                    f"no events near the window (policy={policy}, "
                    f"replicas={mysql_replicas}, seed={seed})"
                )
