"""Property-based tests of the telemetry aggregation guarantees.

The parallel pipeline ships spans from workers in whatever order the
scheduler produces — every rollup the telemetry layer computes must be
independent of that order.  Histogram merging is the core primitive:
bucket-wise integer addition, so it must behave like a commutative
monoid over any interleaving.
"""

import random

from hypothesis import given, strategies as st

from repro.telemetry.aggregate import (
    LatencyHistogram,
    RunTelemetry,
    merge_histograms,
)
from repro.telemetry.spans import SpanData

durations = st.lists(st.integers(0, 2**40), max_size=80)


def _histogram(values):
    histogram = LatencyHistogram()
    for value in values:
        histogram.observe(value)
    return histogram


def _snapshot(histogram):
    return (
        histogram.buckets,
        histogram.count,
        histogram.total_us,
        histogram.min_us,
        histogram.max_us,
    )


@given(durations, durations)
def test_merge_is_commutative(a, b):
    left = _histogram(a).merge(_histogram(b))
    right = _histogram(b).merge(_histogram(a))
    assert _snapshot(left) == _snapshot(right)


@given(durations, durations, durations)
def test_merge_is_associative(a, b, c):
    ha, hb, hc = _histogram(a), _histogram(b), _histogram(c)
    assert _snapshot(ha.merge(hb).merge(hc)) == _snapshot(
        ha.merge(hb.merge(hc))
    )


@given(durations)
def test_merge_of_shards_equals_whole(values):
    """Splitting a stream into shards and merging them back is lossless
    — exactly the per-worker-partials-into-run-total path."""
    whole = _histogram(values)
    shards = [_histogram(values[i::3]) for i in range(3)]
    random.Random(0).shuffle(shards)
    merged = merge_histograms(shards)
    assert _snapshot(merged) == _snapshot(whole)


@given(durations)
def test_identity_element(values):
    histogram = _histogram(values)
    merged = histogram.merge(LatencyHistogram())
    assert _snapshot(merged) == _snapshot(histogram)


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=80))
def test_percentiles_are_bounded_and_monotone(values):
    histogram = _histogram(values)
    p50 = histogram.percentile(0.50)
    p90 = histogram.percentile(0.90)
    p99 = histogram.percentile(0.99)
    assert 0 <= p50 <= p90 <= p99 <= histogram.max_us
    assert min(values) <= histogram.max_us == max(values)


spans = st.lists(
    st.builds(
        SpanData,
        stage=st.sampled_from(["parse", "convert", "import"]),
        hostname=st.just("h"),
        source_path=st.just("f.log"),
        duration_ns=st.integers(0, 10**12),
        records=st.integers(0, 10**6),
        bytes=st.integers(0, 10**9),
        errors=st.integers(0, 100),
        worker=st.sampled_from(["main", "pid-1", "pid-2", "pid-3"]),
    ),
    max_size=60,
)


@given(spans, st.randoms(use_true_random=False))
def test_aggregation_is_order_independent(stream, rng):
    """Any fan-out interleaving aggregates to the same run telemetry."""
    shuffled = list(stream)
    rng.shuffle(shuffled)
    a = RunTelemetry.from_spans(stream, wall_ns=10**9)
    b = RunTelemetry.from_spans(shuffled, wall_ns=10**9)
    for stage in a.stages:
        assert stage in b.stages
        assert a.stages[stage].records == b.stages[stage].records
        assert a.stages[stage].errors == b.stages[stage].errors
        assert (
            a.stages[stage].histogram.buckets
            == b.stages[stage].histogram.buckets
        )
    # Worker *labels* are order-dependent by design (w0.. by first
    # appearance) but the multiset of workloads is not.
    assert sorted(w.busy_us for w in a.workers.values()) == sorted(
        w.busy_us for w in b.workers.values()
    )


@given(spans)
def test_counts_sum_to_per_run_totals(stream):
    telemetry = RunTelemetry.from_spans(stream, wall_ns=10**9)
    for stage_name in ("parse", "convert", "import"):
        stage = telemetry.stages.get(stage_name)
        if stage is None:
            continue
        expected = [s for s in stream if s.stage == stage_name]
        assert stage.spans == len(expected)
        assert stage.records == sum(s.records for s in expected)
        assert stage.errors == sum(s.errors for s in expected)
        assert stage.histogram.count == len(expected)
    assert sum(w.spans for w in telemetry.workers.values()) == len(stream)


@given(st.integers(0, 2**62))
def test_bucket_index_brackets_the_value(value):
    index = LatencyHistogram.bucket_index(value)
    assert 0 <= index <= 63
    if index < 63:
        assert value < 2**index
        if index:
            assert value >= 2 ** (index - 1)


@given(spans, st.lists(st.integers(0, 60), max_size=5))
def test_folding_in_parts_equals_aggregating_the_whole(stream, cuts):
    """Folding any split of a span stream with ``add`` (a long-running
    process's cycle-by-cycle rollup) gives the stages and workers of
    ``from_spans`` over the whole stream."""
    bounds = [0, *sorted(min(cut, len(stream)) for cut in cuts), len(stream)]
    folded = RunTelemetry()
    for start, stop in zip(bounds, bounds[1:]):
        folded.add(stream[start:stop])
    whole = RunTelemetry.from_spans(stream)
    assert [s.to_dict() for s in folded.stages.values()] == [
        s.to_dict() for s in whole.stages.values()
    ]
    # ``add`` keeps raw worker labels; ``from_spans`` renames them
    # w0..wN by first appearance, which a split does not reorder.
    assert [(w.spans, w.busy_us) for w in folded.workers.values()] == [
        (w.spans, w.busy_us) for w in whole.workers.values()
    ]
    assert ("main" in folded.workers) == ("main" in whole.workers)
