"""Tests for clock-skew modeling and estimation."""

import pytest

from repro.analysis.causal import reconstruct_path
from repro.analysis.skew import estimate_tier_offsets
from repro.common.errors import AnalysisError
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig
from repro.ntier.node import NodeSpec
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

#: Injected ground-truth offsets (µs) per tier.
OFFSETS = {"apache": 0, "tomcat": 5_000, "cjdbc": -2_000, "mysql": 11_000}


def skewed_system(tmp_path, offsets=OFFSETS, seed=6):
    config = SystemConfig(
        workload=WorkloadSpec(users=80, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
        log_dir=tmp_path / "logs",
        tiers={
            tier: TierConfig(
                workers=30, node=NodeSpec(clock_offset_us=offsets[tier])
            )
            for tier in ("apache", "tomcat", "cjdbc", "mysql")
        },
    )
    system = NTierSystem(config)
    EventMonitorSuite().attach(system)
    return system


@pytest.fixture(scope="module")
def skewed_db(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("skewed")
    system = skewed_system(tmp)
    system.run(seconds(3))
    db = MScopeDB()
    MScopeDataTransformer(db).transform_directory(tmp / "logs")
    return db


def test_skewed_node_logs_shifted_timestamps(tmp_path):
    system = skewed_system(tmp_path)
    result = system.run(seconds(1))
    trace = result.traces[0]
    lines = (
        (tmp_path / "logs" / "app1" / "catalina_log.log")
        .read_text()
        .splitlines()
    )
    first = lines[0]
    ua_logged = int(first.split("UA=")[1].split()[0])
    visit = trace.visits_for("tomcat")[0]
    true_epoch = system.wall_clock.epoch_micros(visit.upstream_arrival)
    # tomcat's clock runs 5 ms fast.
    assert ua_logged - true_epoch == OFFSETS["tomcat"]


def test_skew_breaks_happens_before(skewed_db):
    """With an 11 ms-fast MySQL clock, warehouse joins violate causality."""
    row = skewed_db.query(
        "SELECT a.request_id FROM apache_events_web1 a "
        "JOIN mysql_events_db1 m ON a.request_id = m.request_id "
        "WHERE m.upstream_departure_us > a.upstream_departure_us LIMIT 1"
    )
    assert row, "expected at least one causality violation under skew"
    request_id = row[0][0]
    path = reconstruct_path(skewed_db, request_id)
    with pytest.raises(AnalysisError):
        path.validate_happens_before()


def test_estimator_recovers_injected_offsets(skewed_db):
    estimate = estimate_tier_offsets(skewed_db)
    for tier, injected in OFFSETS.items():
        recovered = estimate.offset_of(tier)
        assert recovered == pytest.approx(injected, abs=500), tier
    assert "tomcat" in estimate.to_text()


def test_correction_restores_happens_before(skewed_db):
    """Subtracting the estimated offsets repairs the causal joins."""
    estimate = estimate_tier_offsets(skewed_db)
    row = skewed_db.query(
        "SELECT a.request_id FROM apache_events_web1 a "
        "JOIN mysql_events_db1 m ON a.request_id = m.request_id LIMIT 50"
    )
    from repro.analysis.causal import CausalHop, CausalPath

    repaired = 0
    for (request_id,) in row:
        path = reconstruct_path(skewed_db, request_id)
        corrected_hops = [
            CausalHop(
                h.tier,
                h.upstream_arrival_us - estimate.offset_of(h.tier),
                h.upstream_departure_us - estimate.offset_of(h.tier),
                (
                    h.downstream_sending_us - estimate.offset_of(h.tier)
                    if h.downstream_sending_us is not None
                    else None
                ),
                (
                    h.downstream_receiving_us - estimate.offset_of(h.tier)
                    if h.downstream_receiving_us is not None
                    else None
                ),
            )
            for h in path.hops
        ]
        # Skew also scrambled the hop order; re-sort on corrected time.
        corrected_hops.sort(key=lambda h: h.upstream_arrival_us)
        corrected = CausalPath(request_id, corrected_hops)
        corrected.validate_happens_before()
        repaired += 1
    assert repaired == len(row)


def test_no_skew_estimates_near_zero(tmp_path):
    system = skewed_system(
        tmp_path, offsets={t: 0 for t in OFFSETS}, seed=7
    )
    system.run(seconds(2))
    db = MScopeDB()
    MScopeDataTransformer(db).transform_directory(tmp_path / "logs")
    estimate = estimate_tier_offsets(db)
    for tier in OFFSETS:
        assert abs(estimate.offset_of(tier)) < 300, tier


def test_estimator_needs_two_tables():
    db = MScopeDB()
    db.create_table("apache_events_web1", [("request_id", "TEXT")])
    with pytest.raises(AnalysisError):
        estimate_tier_offsets(db)
