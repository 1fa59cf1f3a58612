"""Unit tests for the pluggable log-volume-reduction policies."""

import pytest

from repro.common.errors import AnalysisError
from repro.common.timebase import ms
from repro.sampling.policy import (
    ConflationPolicy,
    HeadSamplingPolicy,
    TailSamplingPolicy,
    coherent_keep,
    parse_policy,
    row_bytes,
)
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.xml_to_csv import CsvTable
from repro.warehouse.db import MScopeDB

COLUMNS = [
    ("request_id", "TEXT"),
    ("interaction", "TEXT"),
    ("upstream_arrival_us", "INTEGER"),
    ("upstream_departure_us", "INTEGER"),
]


def boundary_table(rows, name="tomcat_boundary", source="app1/tomcat.log"):
    return CsvTable(
        name=name, columns=COLUMNS, rows=rows, monitor="event", source=source
    )


def request_row(i, span_us=ms(2), interaction="Browse"):
    arrival = ms(10 * (i + 1))
    return (f"R0A00000000{i}", interaction, arrival, arrival + span_us)


REQUEST_IDS = [f"R0A00000000{i}" for i in range(40)]


# ---------------------------------------------------------------- coherence


def test_coherent_keep_is_deterministic_and_rate_monotone():
    for rid in REQUEST_IDS:
        assert coherent_keep(rid, 0.3) == coherent_keep(rid, 0.3)
        # A request kept at a low rate stays kept at any higher rate:
        # the decision is a fixed point on [0, 1) compared to the rate.
        if coherent_keep(rid, 0.1):
            assert coherent_keep(rid, 0.5)
    assert all(coherent_keep(rid, 1.0) for rid in REQUEST_IDS)
    assert not any(coherent_keep(rid, 0.0) for rid in REQUEST_IDS)


def test_coherent_keep_rate_tracks_the_population():
    kept = sum(coherent_keep(f"req-{i}", 0.25) for i in range(2000))
    assert 0.18 < kept / 2000 < 0.32


def test_row_bytes_counts_value_text_plus_separators():
    assert row_bytes(("ab", 123)) == len("ab") + len("123") + 2


# ------------------------------------------------------------ parse_policy


def test_parse_policy_round_trips_specs():
    assert parse_policy(None) is None
    assert parse_policy("none") is None
    head = parse_policy("head:0.1")
    assert isinstance(head, HeadSamplingPolicy) and head.spec == "head:0.1"
    tail = parse_policy("tail:0.02:50")
    assert isinstance(tail, TailSamplingPolicy)
    assert tail.spec == "tail:0.02:50"
    assert tail.threshold_us == ms(50)
    bounded = parse_policy("tail:0.1:50:128")
    assert bounded.max_requests == 128
    conflate = parse_policy("conflate:0.2")
    assert isinstance(conflate, ConflationPolicy)
    assert conflate.spec == "conflate:0.2"


@pytest.mark.parametrize(
    "spec",
    ["head", "head:2.0", "head:0", "tail:0.1", "tail:-1:50", "tail:0.1:0",
     "tail:0.1:50:0", "conflate:0", "shake:0.1", "head:abc"],
)
def test_parse_policy_rejects_bad_specs(spec):
    with pytest.raises(AnalysisError):
        parse_policy(spec)


# ------------------------------------------------------------ head policy


def test_head_policy_keeps_exactly_the_coherent_set_and_counts_the_rest():
    policy = HeadSamplingPolicy(0.5)
    rows = [request_row(i) for i in range(40)]
    out = policy.apply(boundary_table(rows))
    expected = [r for r in rows if coherent_keep(r[0], 0.5)]
    assert out.rows == expected
    assert 0 < len(expected) < len(rows)
    entry = policy.counts[("tomcat_boundary", "app1/tomcat.log")]
    assert entry.rows_seen == len(rows)
    assert entry.rows_kept == len(expected)
    assert entry.bytes_seen == sum(row_bytes(r) for r in rows)
    assert entry.bytes_kept == sum(row_bytes(r) for r in expected)


def test_head_policy_is_coherent_across_tiers():
    policy = HeadSamplingPolicy(0.5)
    rows = [request_row(i) for i in range(40)]
    front = policy.apply(boundary_table(rows, name="apache_boundary"))
    back = policy.apply(
        boundary_table(rows, name="mysql_boundary", source="db1/mysql.log")
    )
    assert [r[0] for r in front.rows] == [r[0] for r in back.rows]


def test_head_policy_passes_through_tables_without_request_ids():
    policy = HeadSamplingPolicy(0.01)
    resource = CsvTable(
        name="sar_cpu",
        columns=[("timestamp_us", "INTEGER"), ("cpu_user", "REAL")],
        rows=[(ms(50), 10.0), (ms(100), 12.0)],
        monitor="resource",
        source="db1/sar.log",
    )
    assert policy.apply(resource).rows == resource.rows
    assert policy.counts == {}


# ------------------------------------------------------------ tail policy


def test_tail_policy_commits_vlrt_requests_retroactively_across_tiers():
    policy = TailSamplingPolicy(base_rate=0.0, threshold_us=ms(50))
    fast = request_row(0, span_us=ms(2))
    slow_front = ("RSLOW", "Browse", ms(100), ms(100) + ms(80))
    slow_db = ("RSLOW", "Browse", ms(110), ms(110) + ms(2))
    # The DB-tier record arrives first and is itself fast: deferred.
    first = policy.apply(
        boundary_table([slow_db, fast], name="mysql_boundary",
                       source="db1/mysql.log")
    )
    assert first.rows == []
    assert policy.pending_requests == 2
    # The front-tier record crosses the threshold: kept immediately.
    second = policy.apply(boundary_table([slow_front]))
    assert second.rows == [slow_front]
    # Flush retroactively releases the buffered DB-tier record of the
    # now-decided VLRT; the fast request settles at base rate 0 = drop.
    released = policy.flush()
    assert [(t.name, t.rows) for t in released] == [
        ("mysql_boundary", [slow_db])
    ]
    entry = policy.counts[("mysql_boundary", "db1/mysql.log")]
    assert (entry.rows_seen, entry.rows_kept) == (2, 1)


def test_tail_policy_settles_undecided_requests_at_a_coherent_base_rate():
    policy = TailSamplingPolicy(base_rate=0.5, threshold_us=ms(50))
    rows = [request_row(i) for i in range(40)]
    assert policy.apply(boundary_table(rows)).rows == []
    released = policy.flush()
    kept = {r[0] for t in released for r in t.rows}
    assert kept == {r[0] for r in rows if coherent_keep(r[0], 0.5)}
    # Flush is idempotent: everything was settled the first time.
    assert policy.flush() == []
    assert policy.pending_requests == 0


def test_tail_policy_keeps_later_records_of_a_decided_vlrt_immediately():
    policy = TailSamplingPolicy(base_rate=0.0, threshold_us=ms(50))
    slow = ("RSLOW", "Browse", ms(100), ms(100) + ms(80))
    tail_end = ("RSLOW", "Browse", ms(200), ms(200) + ms(1))
    policy.apply(boundary_table([slow]))
    out = policy.apply(boundary_table([tail_end]))
    assert out.rows == [tail_end]


def test_tail_policy_evicts_oldest_requests_past_the_buffer_bound():
    policy = TailSamplingPolicy(
        base_rate=1.0, threshold_us=ms(50), max_requests=4
    )
    rows = [request_row(i) for i in range(10)]
    policy.apply(boundary_table(rows))
    assert policy.pending_requests <= 4
    # base_rate=1.0 means eviction settles everything as kept.
    released = policy.flush()
    settled = {r[0] for t in released for r in t.rows}
    assert settled == {r[0] for r in rows}


# ------------------------------------------------------- conflation policy


def test_conflation_keeps_exemplars_and_aggregates_the_rest_per_class():
    policy = ConflationPolicy(0.5)
    rows = [
        request_row(i, span_us=ms(i + 1), interaction=("Browse" if i % 2 else "Search"))
        for i in range(40)
    ]
    out = policy.apply(boundary_table(rows))
    exemplars = [r for r in rows if coherent_keep(r[0], 0.5)]
    assert out.rows == exemplars
    folded = [r for r in rows if not coherent_keep(r[0], 0.5)]
    aggregates = {
        (table, klass): (requests, records, total, low, high)
        for table, klass, requests, records, total, low, high
        in policy.conflated_rows()
    }
    for klass in ("Browse", "Search"):
        klass_rows = [r for r in folded if r[1] == klass]
        spans = [r[3] - r[2] for r in klass_rows]
        assert aggregates[("tomcat_boundary", klass)] == (
            len({r[0] for r in klass_rows}),
            len(klass_rows),
            sum(spans),
            min(spans),
            max(spans),
        )


# -------------------------------------------------------- importer.flush()


def test_commit_flush_lands_deferred_rows_ledger_and_catalog():
    db = MScopeDB()
    policy = TailSamplingPolicy(base_rate=0.0, threshold_us=ms(50))
    importer = MScopeDataImporter(db, policy)
    slow = ("RSLOW", "Browse", ms(100), ms(100) + ms(80))
    buffered = ("RSLOW", "Browse", ms(110), ms(110) + ms(2))
    fast = request_row(0)

    # The fast records arrive first and are deferred; the slow record
    # then marks RSLOW as VLRT, so its buffered row must be released
    # retroactively by the flush.
    table = boundary_table([buffered, fast])
    assert importer.import_table(table, "app1", "tomcat") == 0
    assert importer.import_table(boundary_table([slow]), "app1", "tomcat") == 1
    assert db.query("SELECT request_id FROM tomcat_boundary") == [("RSLOW",)]

    committed = importer.flush()
    assert committed == 1  # the buffered VLRT record, not the fast one
    assert db.row_count("tomcat_boundary") == 2
    (ledger,) = db.sampling_ledger()
    assert ledger == (
        "tomcat_boundary", "app1/tomcat.log", "tail:0:50",
        3, 2,
        sum(row_bytes(r) for r in (slow, buffered, fast)),
        row_bytes(slow) + row_bytes(buffered),
    )
    summary = db.sampling_summary()
    assert summary["rows_seen"] == 3 and summary["rows_kept"] == 2
    # The load catalog carries the stream's cumulative kept count,
    # not the flush delta.
    (catalog_rows,) = db.query(
        "SELECT rows_loaded FROM load_catalog WHERE table_name = ?",
        ("tomcat_boundary",),
    )
    assert catalog_rows[0] == 2
    # Idempotent: a second flush has nothing left to release.
    assert importer.flush() == 0
    assert db.row_count("tomcat_boundary") == 2


def test_commit_flush_upserts_conflation_aggregates():
    db = MScopeDB()
    policy = ConflationPolicy(0.5)
    importer = MScopeDataImporter(db, policy)
    rows = [request_row(i) for i in range(40)]
    importer.import_table(boundary_table(rows), "app1", "tomcat")

    importer.flush()
    folded = [r for r in rows if not coherent_keep(r[0], 0.5)]
    (agg,) = db.conflated_requests()
    assert agg[:4] == ("tomcat_boundary", "Browse", len(folded), len(folded))
    # Re-flushing after more traffic replaces (not doubles) the row.
    policy.apply(boundary_table([request_row(40 + i) for i in range(10)]))
    importer.flush()
    (again,) = db.conflated_requests()
    assert again[2] >= agg[2]
