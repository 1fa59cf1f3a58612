"""Tests for per-tier latency decomposition."""

import pytest

from repro.analysis.breakdown import (
    NETWORK_LABEL,
    request_breakdown_ms,
    tier_latency_series,
)
from repro.common.errors import AnalysisError
from repro.common.records import BoundaryRecord, DownstreamCall, RequestTrace
from repro.common.timebase import ms


def make_trace():
    """client 0..20ms; apache 1..19 (downstream 2..18); tomcat 3..17."""
    trace = RequestTrace("R0A000000001", "ViewStory", client_send=0)
    trace.client_receive = ms(20)
    apache = BoundaryRecord(
        "R0A000000001", "apache", "web1", ms(1), upstream_departure=ms(19)
    )
    apache.record_call(DownstreamCall("tomcat", ms(2), ms(18)))
    tomcat = BoundaryRecord(
        "R0A000000001", "tomcat", "app1", ms(3), upstream_departure=ms(17)
    )
    trace.add_visit(apache)
    trace.add_visit(tomcat)
    return trace


def test_breakdown_sums_to_response_time():
    breakdown = request_breakdown_ms(make_trace())
    assert sum(breakdown.values()) == pytest.approx(20.0)


def test_breakdown_local_times():
    breakdown = request_breakdown_ms(make_trace())
    assert breakdown["apache"] == pytest.approx(2.0)  # 18 total - 16 downstream
    assert breakdown["tomcat"] == pytest.approx(14.0)
    assert breakdown[NETWORK_LABEL] == pytest.approx(4.0)


def test_breakdown_requires_completion():
    trace = RequestTrace("R0A000000002", "ViewStory", client_send=0)
    with pytest.raises(AnalysisError):
        request_breakdown_ms(trace)


def test_series_window_means():
    traces = [make_trace() for _ in range(3)]
    series = tier_latency_series(traces, ms(50), 0, ms(100))
    # All three requests complete at 20 ms -> first window only.
    assert series["tomcat"].values[0] == pytest.approx(14.0)
    assert series["tomcat"].values[1] == 0.0
    assert NETWORK_LABEL in series


def test_series_validation():
    with pytest.raises(AnalysisError):
        tier_latency_series([], 0, 0, 100)
    with pytest.raises(AnalysisError):
        tier_latency_series([], 10, 100, 100)


def test_breakdown_on_simulated_traffic():
    from repro.common.timebase import seconds
    from repro.ntier.system import NTierSystem, SystemConfig
    from repro.rubbos.workload import WorkloadSpec

    config = SystemConfig(
        workload=WorkloadSpec(users=30, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=2,
    )
    result = NTierSystem(config).run(seconds(1))
    series = tier_latency_series(result.traces, ms(100), 0, seconds(1))
    # Tomcat (servlet CPU) dominates a healthy request's latency.
    busy_window = max(range(len(series["tomcat"])), key=lambda i: series["tomcat"].values[i])
    assert series["tomcat"].values[busy_window] > series["apache"].values[busy_window]
    # Decomposition sums approximate the mean response time.
    totals = sum(s.values[busy_window] for s in series.values())
    assert 2.0 < totals < 50.0
