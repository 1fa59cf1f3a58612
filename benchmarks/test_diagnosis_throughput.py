"""Bulk analysis engine throughput: batched vs scalar on 50k requests.

The acceptance benchmark for the vectorized analysis engine: build a
50,000-request synthetic warehouse with a *recurring* very short
bottleneck (one VLRT burst every 10 s — the paper's VSBs recur
throughout a run, so a real diagnosis walks dozens of anomaly
windows), then time the pre-engine scalar workflow against the bulk
workflow and assert a >=10x end-to-end speedup — plus, the part that
makes the speedup trustworthy, identical outputs from both.

The scalar baseline is preserved *here*, verbatim from the pre-cache
engine, so it cannot silently inherit later optimizations:

* ``scalar_reference_reconstruct`` issues one query per tier table
  per request and re-reads each table's schema per call (the code
  predates MScopeDB's schema cache);
* ``ScalarReferenceDiagnoser`` re-pulls every tier's boundary spans
  and every candidate's series from SQL per anomaly window, and
  re-runs the O(n log n) VLRT detection per window for the
  interaction-skew table.
"""

import time

import pytest

from repro.analysis.anomaly import detect_vlrt
from repro.analysis.causal import CausalHop, CausalPath, reconstruct_paths_bulk
from repro.analysis.diagnosis import Diagnoser, QueueFinding
from repro.analysis.metrics import metric_series
from repro.analysis.queues import tier_queue_lengths
from repro.common.timebase import ms
from repro.warehouse.db import MScopeDB, quote_identifier

from conftest import report
from record import record

EPOCH = 1_000_000_000
MS = 1_000
N_REQUESTS = 50_000
SPACING_US = 10 * MS  # one request every 10 ms -> ~500 s of traffic
BURST_PERIOD_MS = 10_000  # a VSB flares every 10 s
BURST_SIZE = 10

TIER_TABLES = {
    "apache": "apache_events_web1",
    "tomcat": "tomcat_events_app1",
    "mysql": "mysql_events_db1",
}

EVENT_COLUMNS = [
    ("request_id", "TEXT"),
    ("interaction", "TEXT"),
    ("upstream_arrival_us", "INTEGER"),
    ("upstream_departure_us", "INTEGER"),
]


def _burst_starts_ms():
    duration_ms = (N_REQUESTS * SPACING_US) // 1_000
    return range(BURST_PERIOD_MS, duration_ms - 2_000, BURST_PERIOD_MS)


def _request_spans():
    """50k requests: healthy traffic plus one VLRT burst every 10 s."""
    bursts = list(_burst_starts_ms())
    healthy = N_REQUESTS - BURST_SIZE * len(bursts)
    spans = [(i * SPACING_US, i * SPACING_US + 5 * MS) for i in range(healthy)]
    for start_ms in bursts:
        spans += [
            (start_ms * MS + i * MS, (start_ms + 300) * MS + i * MS)
            for i in range(BURST_SIZE)
        ]
    return spans


@pytest.fixture(scope="module")
def big_warehouse(tmp_path_factory):
    db = MScopeDB(tmp_path_factory.mktemp("bench_diag") / "mscope.db")
    spans = _request_spans()
    interactions = ("ViewStory", "StoryDetail", "Login", "PostComment")
    for tier_index, table in enumerate(TIER_TABLES.values()):
        # Each tier sees the request slightly later for slightly less
        # time — a plausible nesting that keeps hop order non-trivial.
        pad = 500 * tier_index
        db.create_table(table, EVENT_COLUMNS)
        db.insert_rows(
            table,
            [c for c, _ in EVENT_COLUMNS],
            (
                (
                    f"R0A{i:09d}",
                    interactions[i % 4],
                    EPOCH + a + pad,
                    EPOCH + d - pad,
                )
                for i, (a, d) in enumerate(spans)
            ),
        )
        # The importer builds this index on real warehouses; without it
        # the scalar baseline degenerates to 150k full scans and the
        # comparison flatters the bulk engine dishonestly.
        db.create_index(table, "request_id")
    duration_s = (N_REQUESTS * SPACING_US) // 1_000_000
    samples = duration_s * 20  # one disk sample per 50 ms
    per_burst = BURST_PERIOD_MS // 50  # sample indices between bursts

    def disk_value(i):
        # Saturated during each burst's first 400 ms, quiet otherwise.
        return 97.0 if i >= per_burst and i % per_burst < 8 else 6.0

    db.create_table(
        "collectl_db1", [("timestamp_us", "INTEGER"), ("dsk_pctutil", "REAL")]
    )
    db.insert_rows(
        "collectl_db1",
        ["timestamp_us", "dsk_pctutil"],
        ((EPOCH + i * 50 * MS, disk_value(i)) for i in range(samples)),
    )
    db.register_monitor("collectl", "db1", "p", "collectl_csv", "collectl_db1")
    db.create_table(
        "collectl_web1", [("timestamp_us", "INTEGER"), ("mem_dirty", "INTEGER")]
    )
    db.insert_rows(
        "collectl_web1",
        ["timestamp_us", "mem_dirty"],
        ((EPOCH + i * 50 * MS, 20_000) for i in range(samples)),
    )
    db.register_monitor("collectl", "web1", "p", "collectl_csv", "collectl_web1")
    yield db
    db.close()


# ----------------------------------------------------------------------
# the preserved scalar baseline


def scalar_reference_reconstruct(db, request_id, tier_tables):
    """Pre-engine ``reconstruct_path``: per-tier point queries, with
    the schema re-read from the catalog on every call (verbatim from
    before MScopeDB grew its schema cache)."""
    hops = []
    for tier, table in tier_tables.items():
        # The host a ``{tier}_events_{host}`` table belongs to, derived
        # as analysis.causal does.
        host = table.partition("_events_")[2] or None
        rows = db.query(f"PRAGMA table_info({quote_identifier(table)})")
        overrides = dict(
            db.query(
                "SELECT column_name, sql_type FROM schema_catalog "
                "WHERE table_name = ?",
                (table,),
            )
        )
        columns = {row[1] for row in rows}
        del overrides  # fetched (as the old table_schema did), unused here
        if "request_id" not in columns:
            continue
        select_ds = (
            "downstream_sending_us" if "downstream_sending_us" in columns else "NULL"
        )
        select_dr = (
            "downstream_receiving_us"
            if "downstream_receiving_us" in columns
            else "NULL"
        )
        rows = db.query(
            f"SELECT upstream_arrival_us, upstream_departure_us, "
            f"{select_ds}, {select_dr} FROM {quote_identifier(table)} "
            f"WHERE request_id = ? ORDER BY upstream_arrival_us, rowid",
            (request_id,),
        )
        for arrival, departure, sending, receiving in rows:
            hops.append(
                CausalHop(
                    tier=tier,
                    upstream_arrival_us=arrival,
                    upstream_departure_us=departure,
                    downstream_sending_us=sending,
                    downstream_receiving_us=receiving,
                    host=host,
                )
            )
    hops.sort(key=lambda h: h.upstream_arrival_us)
    return CausalPath(request_id=request_id, hops=hops)


class ScalarReferenceDiagnoser(Diagnoser):
    """The pre-cache diagnosis engine, preserved as the baseline.

    Re-pulls every tier's boundary spans and every candidate's series
    from SQL *per anomaly window*, and re-detects VLRTs per window for
    the interaction table — the N+1 patterns the SeriesCache and the
    hoisted skew inputs removed.  Only the three analysis stages are
    overridden; detection, ranking, and report assembly stay shared,
    so output differences could only come from the data path under
    test.
    """

    def _queue_analysis(self, window, horizon, step):
        context_start = max(0, window.start - ms(1_000))
        context_stop = min(horizon, window.stop + ms(1_000))
        queues = tier_queue_lengths(
            self.db,
            self.tier_tables,
            context_start,
            context_stop,
            step,
            self.epoch_us,
        )
        findings = []
        for tier, series in queues.items():
            inside = series.window(window.start, window.stop)
            outside_values = [
                series.window(context_start, window.start).mean(),
                series.window(window.stop, context_stop).mean(),
            ]
            baseline = sum(outside_values) / len(outside_values)
            findings.append(
                QueueFinding(
                    tier=tier, peak_queue=inside.max(), baseline_queue=baseline
                )
            )
        pushback = [f.tier for f in findings if f.amplification >= 3.0]
        front_tier = next(iter(self.tier_tables))
        return findings, pushback, queues[front_tier]

    def _resource_analysis(self, window, candidates, front_queue, queue_step_us):
        causes = []
        for candidate in candidates:
            series = metric_series(
                self.db,
                candidate.table,
                candidate.columns,
                epoch_us=self.epoch_us,
                start=window.start - ms(500),
                stop=window.stop + ms(500),
            )
            if series.is_empty():
                continue
            inside = series.window(window.start, window.stop)
            if inside.is_empty():
                continue
            if candidate.kind == "dirty_pages":
                cause = self._dirty_page_cause(candidate, inside)
            else:
                cause = self._saturation_cause(
                    candidate, inside, front_queue, series
                )
            if cause is not None:
                causes.append(cause)
        causes.sort(key=lambda c: c.score, reverse=True)
        return causes

    def _interaction_analysis(self, window, skew):
        vlrt_counts = {}
        totals = {}
        vlrt_ids = {
            v.request_id
            for v in detect_vlrt(skew.completions)
            if window.start <= v.completed_at <= window.stop
        }
        for sample in skew.completions:
            if not sample.interaction:
                continue
            totals[sample.interaction] = totals.get(sample.interaction, 0) + 1
            if sample.request_id in vlrt_ids:
                vlrt_counts[sample.interaction] = (
                    vlrt_counts.get(sample.interaction, 0) + 1
                )
        return {
            name: (count, count / totals[name])
            for name, count in vlrt_counts.items()
        }


# ----------------------------------------------------------------------


def test_bulk_engine_speedup(big_warehouse):
    db = big_warehouse
    ids = [f"R0A{i:09d}" for i in range(N_REQUESTS)]
    expected_windows = len(list(_burst_starts_ms()))

    # Two timed rounds per engine, keeping each side's minimum: the
    # ratio under test is engine cost, not scheduler noise, and the
    # minimum is the least-contended observation of each.
    scalar_s = bulk_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        scalar_paths = [
            scalar_reference_reconstruct(db, rid, TIER_TABLES) for rid in ids
        ]
        scalar_reports = ScalarReferenceDiagnoser(db, epoch_us=EPOCH).diagnose()
        scalar_s = min(scalar_s, time.perf_counter() - t0)

    for _ in range(2):
        t0 = time.perf_counter()
        bulk_diagnoser = Diagnoser(db, epoch_us=EPOCH)
        bulk_paths = list(reconstruct_paths_bulk(db, ids, TIER_TABLES))
        bulk_reports = bulk_diagnoser.diagnose()
        bulk_s = min(bulk_s, time.perf_counter() - t0)

    # Identical answers first — a fast wrong engine is worthless.
    assert len(bulk_paths) == len(scalar_paths) == N_REQUESTS
    assert all(
        b.request_id == s.request_id and b.hops == s.hops
        for b, s in zip(bulk_paths[::977], scalar_paths[::977])
    )
    assert bulk_reports == scalar_reports
    assert len(bulk_reports) == expected_windows

    speedup = scalar_s / bulk_s
    report(
        f"Diagnosis throughput: bulk vs scalar "
        f"(50k requests, {expected_windows} anomaly windows)",
        f"scalar reconstruct+diagnose: {scalar_s:8.2f} s\n"
        f"bulk   reconstruct+diagnose: {bulk_s:8.2f} s\n"
        f"end-to-end speedup:          {speedup:8.1f}x\n"
        f"series-cache hits/misses:    "
        f"{bulk_diagnoser.cache.hits}/{bulk_diagnoser.cache.misses}",
    )
    record(
        "bulk_engine_speedup",
        requests=N_REQUESTS,
        anomaly_windows=expected_windows,
        scalar_s=round(scalar_s, 3),
        bulk_s=round(bulk_s, 3),
        speedup=round(speedup, 1),
        cache_hits=bulk_diagnoser.cache.hits,
        cache_misses=bulk_diagnoser.cache.misses,
    )
    assert speedup >= 10.0, f"bulk engine only {speedup:.1f}x faster"
