import json
import re

import pytest

import compare
import harness
from harness import OpLog, Outcome, Tracer


@pytest.mark.parametrize(
    "ops, pct",
    # The issue's op counts, then the reference sizes' own.
    [(240, 95), (50, 80), (600, 95), (60, 80), (300, 95), (264, 95),
     (1000, 99), (100, 90), (40, 75), (39, 75)],
)
def test_tail_percentile_rule(ops, pct):
    assert harness.tail_pct(ops) == pct


def test_reference_sizes_keep_the_tail_percentiles():
    sizes = harness.REFERENCE
    assert harness.tail_pct(sizes.sim_ops) == 95
    assert harness.tail_pct(sizes.batch_ops) == 80
    assert harness.tail_pct(sizes.window_rounds * 22) == 95
    assert harness.tail_pct(sizes.serve_steps) == 80


def test_nearest_rank_percentile_leaves_ten_beyond():
    values = list(range(1, 201))
    assert harness.percentile(values, 95) == 190
    assert harness.percentile(values, 50) == 100


def test_span_self_time_is_duration_minus_covered_children():
    #            name  start end  parent op
    spans = [
        ["op",    0.0, 10.0, None, 0],
        ["a",     1.0, 4.0, 0, 0],
        ["b",     3.0, 6.0, 0, 0],     # overlaps a: union covers [1, 6]
        ["a.in",  1.5, 2.5, 1, 0],
        ["late",  9.0, 12.0, 0, 0],    # clipped to the parent's end
    ]
    assert harness.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    by_op = harness.self_by_op(spans, "a")
    assert by_op == {"a": {0: pytest.approx(2.0)}, "a.in": {0: pytest.approx(1.0)}}


def test_tracer_records_parents_and_inherits_the_op_id():
    tracer = Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("op", op=7):
        with tracer.span("child"):
            pass
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("op", None, 7), ("child", 0, 7)]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_traced_ops_balance_drift_and_every_fourth_step():
    pattern = [harness.traced_op(i) for i in range(16)]
    assert pattern[:8] == [True, False, False, True, False, True, True, False]
    assert pattern[8:] == pattern[:8]
    traced = [i for i in range(8) if pattern[i]]
    plain = [i for i in range(8) if not pattern[i]]
    assert sum(traced) == sum(plain)  # same mean position: linear drift cancels
    assert sorted(i % 4 for i in traced) == sorted(i % 4 for i in plain)


def test_trace_overhead_pairs_neighbours_so_drift_cancels():
    tracer = Tracer()
    ops = OpLog(tracer, traced=True, inject_failure=False)
    for index in range(64):
        ops.begin()
        drift = 1.0 + 0.05 * index           # latency grows 5 % of base per op
        ops.end(drift * (1.10 if tracer.enabled else 1.0), True)
    assert ops.trace_overhead_pct() == pytest.approx(10.0, abs=0.5)
    assert len(ops.latencies_where(traced=True)) == 32


def _outcome(ops: OpLog, checks: dict[str, bool]) -> Outcome:
    return Outcome(
        setup_rounds_s=[1.0, 3.0, 2.0], ops=ops, items=100, busy_s=2.0,
        cpu_s=1.0, disk_bytes_per_item=10.0, checks=checks,
    )


def test_failed_ops_are_counted_and_their_latency_is_not_a_sample():
    ops = OpLog(Tracer(), traced=False, inject_failure=False)
    for latency, ok in [(0.010, True), (9.0, False), (0.030, True)]:
        ops.begin()
        ops.end(latency, ok)
    result = harness.fold(_outcome(ops, {"final": True}), 0.5, traced=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert result["metrics"]["op_tail_ms"]["value"] == pytest.approx(30.0)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(2.5)
    assert set(result["metrics"]) == set(harness.END_TO_END)


def test_a_failed_run_level_check_fails_the_run():
    ops = OpLog(Tracer(), traced=False, inject_failure=False)
    ops.begin()
    ops.end(0.01, True)
    result = harness.fold(_outcome(ops, {"dump_equal": False}), 0.5, traced=False)
    assert result["failed"] == 1 and not result["correct"]
    assert result["info"]["failed_checks"] == ["dump_equal"]


def test_traced_fold_emits_every_declared_layer_and_rejects_others():
    ops = OpLog(Tracer(), traced=True, inject_failure=False)
    ops.begin()
    ops.end(0.01, True)
    outcome = _outcome(ops, {})
    outcome.layers = {"serve.drain_s": 0.25}
    result = harness.fold(outcome, 0.5, traced=True)
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    assert result["metrics"]["serve.drain_s"]["value"] == 0.25
    outcome.layers = {"not.declared": 1.0}
    with pytest.raises(KeyError):
        harness.fold(outcome, 0.5, traced=True)


def test_every_name_the_runner_emits_is_declared_in_benchmark_json():
    declared = json.loads(compare.BENCHMARK.read_text())
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == harness.END_TO_END
    assert per_layer == harness.PER_LAYER
    assert declared["run_seconds"] == harness.REFERENCE.run_seconds
    legal = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = list(harness.WORKLOADS) + list(end_to_end) + list(per_layer)
    assert all(legal.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(per_layer) <= 128


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0]
    assert compare.verdict(base, [100.5, 99.5, 101.5], 0.1, False)[0] == "within-bound"
    assert compare.verdict(base, [120.0, 121.0, 119.0], 0.1, False)[0] == "worse"
    assert compare.verdict(base, [80.0, 81.0, 79.0], 0.1, False)[0] == "better"
    assert compare.verdict(base, [80.0, 81.0, 79.0], 0.1, True)[0] == "worse"
    # Spread wider than the bound and the runs interleave.
    assert compare.verdict([80.0, 100.0, 120.0], [90.0, 115.0, 130.0], 0.1, False)[0] == (
        "unresolved"
    )
    # Wide spread, but every run of B is worse than every run of A.
    assert compare.verdict([80.0, 100.0, 120.0], [150.0, 170.0, 190.0], 0.1, False)[0] == (
        "worse"
    )
