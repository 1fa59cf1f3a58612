"""Queueing-theoretic validation of the substrate.

If the simulator is a faithful queueing system, textbook identities
must hold on its output: Little's law per tier, flow conservation
across tiers, and utilization consistency. These are global invariants
no amount of unit testing implies.
"""

import pytest

from repro.analysis.queues import concurrency_series, spans_from_traces
from repro.common.timebase import ms, seconds
from repro.ntier.system import NTierSystem, SystemConfig
from repro.ntier.tiers import TIER_ORDER
from repro.rubbos.workload import WorkloadSpec


@pytest.fixture(scope="module")
def steady_run():
    config = SystemConfig(
        workload=WorkloadSpec(users=150, think_time_us=ms(700), ramp_up_us=ms(300)),
        seed=17,
    )
    system = NTierSystem(config)
    result = system.run(seconds(6))
    return system, result


# Measurement window skips ramp-up and drain edges.
START = seconds(1)
STOP = seconds(5)
SPAN_S = (STOP - START) / 1e6


def test_littles_law_per_tier(steady_run):
    """L = lambda * W within 10% for every tier."""
    _, result = steady_run
    for tier in TIER_ORDER:
        spans = [
            s
            for s in spans_from_traces(result.traces, tier)
            if START <= s[0] < STOP
        ]
        assert len(spans) > 200, tier
        arrival_rate = len(spans) / SPAN_S  # per second
        mean_wait_s = sum(d - a for a, d in spans) / len(spans) / 1e6
        expected_l = arrival_rate * mean_wait_s
        series = concurrency_series(
            spans_from_traces(result.traces, tier), START, STOP, ms(5)
        )
        observed_l = series.mean()
        assert observed_l == pytest.approx(expected_l, rel=0.10), tier


def test_flow_conservation_across_tiers(steady_run):
    """Every apache-completed request passed tomcat exactly once, and
    every C-JDBC visit produced exactly one MySQL visit."""
    _, result = steady_run
    apache_visits = sum(len(t.visits_for("apache")) for t in result.traces)
    tomcat_visits = sum(len(t.visits_for("tomcat")) for t in result.traces)
    assert apache_visits == tomcat_visits == len(result.traces)
    cjdbc_visits = sum(len(t.visits_for("cjdbc")) for t in result.traces)
    mysql_visits = sum(len(t.visits_for("mysql")) for t in result.traces)
    assert cjdbc_visits == mysql_visits
    queries_issued = sum(
        len(v.downstream_calls)
        for t in result.traces
        for v in t.visits_for("tomcat")
    )
    assert queries_issued == cjdbc_visits


def test_throughput_matches_user_cycle(steady_run):
    """Closed system: throughput ~= users / (think + response)."""
    system, result = steady_run
    users = system.config.workload.users
    window = result.collector.completed_between(START, STOP)
    throughput = len(window) / SPAN_S
    mean_rt_s = (
        sum(t.response_time() for t in window) / len(window) / 1e6
    )
    think_s = system.config.workload.think_time_us / 1e6
    expected = users / (think_s + mean_rt_s)
    assert throughput == pytest.approx(expected, rel=0.10)


def test_utilization_matches_demand(steady_run):
    """Tomcat CPU utilization ~= throughput x mean servlet demand."""
    system, result = steady_run
    window = result.collector.completed_between(START, STOP)
    throughput = len(window) / SPAN_S
    from repro.rubbos.interactions import interaction_by_name

    demand_s = sum(
        interaction_by_name(t.interaction).tomcat_cpu_us for t in window
    ) / len(window) / 1e6
    cores = system.nodes["app1"].spec.cores
    expected_util = throughput * demand_s / cores
    observed = system.nodes["app1"].cpu.utilization(START, STOP)
    assert observed == pytest.approx(expected_util, rel=0.10)


def test_response_time_decomposition_sums(steady_run):
    """Per-request: response time == sum of tier local times + network."""
    from repro.analysis.breakdown import request_breakdown_ms

    _, result = steady_run
    for trace in result.traces[:300]:
        breakdown = request_breakdown_ms(trace)
        assert sum(breakdown.values()) == pytest.approx(
            trace.response_time_ms(), abs=0.01
        )
