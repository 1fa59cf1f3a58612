"""Ablation — clock skew: what unsynchronized nodes do, and the fix.

The paper's testbed was NTP-disciplined; milliScope's cross-node
timestamp joins silently assume that.  This ablation skews the Tomcat
and MySQL clocks by several milliseconds, measures how many warehouse-
reconstructed causal paths violate happens-before, and shows the
NTP-equation estimator recovering the offsets from the event logs
alone (no extra instrumentation).
"""

from conftest import report
from repro.analysis.skew import estimate_tier_offsets
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig
from repro.ntier.node import NodeSpec
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

OFFSETS = {"apache": 0, "tomcat": 5_000, "cjdbc": -2_000, "mysql": 11_000}


def build_skewed_db(tmp_path):
    config = SystemConfig(
        workload=WorkloadSpec(users=100, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=6,
        log_dir=tmp_path / "logs",
        tiers={
            tier: TierConfig(
                workers=30, node=NodeSpec(clock_offset_us=OFFSETS[tier])
            )
            for tier in OFFSETS
        },
    )
    system = NTierSystem(config)
    EventMonitorSuite().attach(system)
    system.run(seconds(3))
    db = MScopeDB()
    MScopeDataTransformer(db).transform_directory(tmp_path / "logs")
    return db


def violation_count(db):
    return db.query(
        "SELECT COUNT(DISTINCT a.request_id) FROM apache_events_web1 a "
        "JOIN mysql_events_db1 m ON a.request_id = m.request_id "
        "WHERE m.upstream_departure_us > a.upstream_departure_us"
    )[0][0]


def test_ablation_clock_skew(benchmark, tmp_path):
    db = build_skewed_db(tmp_path)
    violations = violation_count(db)

    estimate = benchmark(estimate_tier_offsets, db)

    errors = {
        tier: abs(estimate.offset_of(tier) - injected)
        for tier, injected in OFFSETS.items()
    }
    lines = [
        f"  injected skew: tomcat +5 ms, cjdbc -2 ms, mysql +11 ms",
        f"  requests with broken happens-before: {violations}",
        "  " + estimate.to_text().replace("\n", "\n  "),
        f"  max estimation error: {max(errors.values()) / 1000:.3f} ms",
    ]
    report("Ablation: clock skew", "\n".join(lines))
    # The 11 ms-fast MySQL clock breaks causality on most requests...
    assert violations > 100
    # ...and the estimator recovers every offset to sub-millisecond.
    assert max(errors.values()) < 1_000
