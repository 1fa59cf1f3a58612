"""Tests for the SysViz-style passive wire tracer."""

from repro.baselines.sysviz import SysVizTracer
from repro.common.timebase import ms, seconds
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec


def traced_run(duration=seconds(1), users=30, seed=2):
    config = SystemConfig(
        workload=WorkloadSpec(users=users, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    system = NTierSystem(config)
    tracer = SysVizTracer()
    tracer.attach(system)
    result = system.run(duration)
    return result, tracer


def test_tap_sees_traffic():
    result, tracer = traced_run()
    assert len(tracer) > 0
    kinds = {r.kind for r in tracer.records}
    assert kinds == {"request", "reply"}


def test_transaction_count_matches_client_requests():
    result, tracer = traced_run()
    # Transactions observed >= completed traces (some still in flight).
    assert tracer.transaction_count() >= len(result.traces)


def test_transaction_reconstruction_ordered():
    result, tracer = traced_run()
    request_id = result.traces[0].request_id
    records = tracer.transaction(request_id)
    assert records[0].src == "client"
    assert records[-1].kind == "reply"
    serials = [r.serial for r in records]
    assert serials == sorted(serials)


def test_tier_spans_match_ground_truth_count():
    result, tracer = traced_run()
    spans = tracer.tier_spans("tomcat")
    visits = sum(len(t.visits_for("tomcat")) for t in result.traces)
    # In-flight requests at the horizon may be missing their reply.
    assert visits <= len(spans) + 5
    for arrival, departure in spans:
        assert arrival < departure


def test_queue_series_close_to_event_monitor_truth():
    from repro.analysis.queues import concurrency_series, spans_from_traces

    result, tracer = traced_run(duration=seconds(2))
    step = ms(10)
    truth = concurrency_series(
        spans_from_traces(result.traces, "apache"), ms(200), seconds(2), step
    )
    wire = tracer.queue_series("apache", ms(200), seconds(2), step)
    diffs = abs(truth.values - wire.values)
    # Wire timestamps differ from server-side boundaries by one network
    # latency; on a 10 ms grid the two views are nearly identical.
    assert diffs.mean() < 0.5


def test_nested_spans_pair_lifo():
    # One request visiting mysql twice: replies must close the right spans.
    result, tracer = traced_run()
    trace = next(t for t in result.traces if len(t.visits_for("mysql")) >= 2)
    spans = [
        s
        for s in tracer.tier_spans("mysql")
        if any(
            abs(s[0] - v.upstream_arrival) < ms(1)
            for v in trace.visits_for("mysql")
        )
    ]
    assert len(spans) >= 2


def test_reconstruct_transaction_matches_ground_truth():
    result, tracer = traced_run()
    trace = max(result.traces, key=lambda t: len(t.visits))
    path = tracer.reconstruct_transaction(trace.request_id)
    path.validate_happens_before()
    # Same hop count and tier sequence as the event monitors' view.
    truth_tiers = [v.tier for v in sorted(trace.visits, key=lambda v: v.upstream_arrival)]
    wire_tiers = [h.tier for h in path.hops]
    assert wire_tiers == truth_tiers
    # Wire timestamps differ from server boundaries by one bus latency.
    truth_first = min(v.upstream_arrival for v in trace.visits)
    assert abs(path.hops[0].upstream_arrival_us - truth_first) <= 200


def test_reconstruct_unknown_transaction_raises():
    import pytest
    from repro.common.errors import AnalysisError

    _, tracer = traced_run()
    with pytest.raises(AnalysisError):
        tracer.reconstruct_transaction("R0Anope00001")
