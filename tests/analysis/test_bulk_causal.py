"""Property tests: path reconstruction against a ground-truth oracle.

`expected_path` rebuilds a request's path from the rows a test
inserted, without SQL: hops in tier order, then insertion order, then a
stable sort by arrival, each tagged with the host its table names.
`reconstruct_paths_bulk` must match it under both fetch strategies
(chunked ``IN (...)`` probes and the dense full-table scan), and so
must `reconstruct_path`, its one-id call.  Hypothesis drives randomized
warehouses at it; directed tests pin the edge cases (duplicate ids,
missing tiers, chunk boundaries).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.causal import (
    CausalHop,
    CausalPath,
    reconstruct_path,
    reconstruct_paths_bulk,
)
from repro.common.errors import AnalysisError
from repro.warehouse.db import MScopeDB

TIER_TABLES = {
    "apache": "apache_events_web1",
    "tomcat": "tomcat_events_app1",
    "mysql": "mysql_events_db1",
}

EVENT_COLUMNS = [
    ("request_id", "TEXT"),
    ("upstream_arrival_us", "INTEGER"),
    ("upstream_departure_us", "INTEGER"),
    ("downstream_sending_us", "INTEGER"),
    ("downstream_receiving_us", "INTEGER"),
]


def build_warehouse(tier_rows):
    """A warehouse from {table: [(rid, arr, dep, ds, dr), ...]}."""
    db = MScopeDB()
    for table in TIER_TABLES.values():
        db.create_table(table, EVENT_COLUMNS)
        rows = tier_rows.get(table, [])
        if rows:
            db.insert_rows(table, [c for c, _ in EVENT_COLUMNS], rows)
    return db


def expected_path(tier_rows, tables, rid):
    """The path of ``rid`` built from the inserted rows (``None`` if absent)."""
    hops = [
        CausalHop(tier, arr, dep, ds, dr, table.partition("_events_")[2] or None)
        for tier, table in tables.items()
        for row_rid, arr, dep, ds, dr in tier_rows.get(table, [])
        if row_rid == rid
    ]
    hops.sort(key=lambda hop: hop.upstream_arrival_us)
    return CausalPath(rid, hops) if hops else None


def paths_equal(a, b):
    return a.request_id == b.request_id and a.hops == b.hops


# -- hypothesis: randomized warehouses ---------------------------------

request_ids = st.sampled_from([f"R{i:011d}" for i in range(12)])

hop_rows = st.builds(
    lambda rid, arr, dur: (rid, arr, arr + dur, None, None),
    request_ids,
    st.integers(min_value=0, max_value=50_000),
    st.integers(min_value=1, max_value=10_000),
)

warehouses = st.fixed_dictionaries(
    {table: st.lists(hop_rows, max_size=12) for table in TIER_TABLES.values()}
)


@settings(max_examples=40, deadline=None)
@given(tier_rows=warehouses, fraction=st.sampled_from([0.0, 1e9]))
def test_bulk_matches_scalar(tier_rows, fraction):
    """Every present id matches the oracle — via the full-scan strategy
    (fraction=0 forces it), the IN-probe strategy and the one-id call."""
    db = build_warehouse(tier_rows)
    present = sorted({row[0] for rows in tier_rows.values() for row in rows})
    bulk = list(
        reconstruct_paths_bulk(
            db, present, TIER_TABLES, full_scan_fraction=fraction
        )
    )
    assert [p.request_id for p in bulk] == present
    for path in bulk:
        expected = expected_path(tier_rows, TIER_TABLES, path.request_id)
        assert paths_equal(path, expected)
        one = reconstruct_path(db, path.request_id, TIER_TABLES)
        assert paths_equal(one, expected)


@settings(max_examples=25, deadline=None)
@given(tier_rows=warehouses)
def test_bulk_skips_missing_ids(tier_rows):
    db = build_warehouse(tier_rows)
    present = sorted({row[0] for rows in tier_rows.values() for row in rows})
    asked = present + ["RMISSING0001", "RMISSING0002"]
    bulk = list(reconstruct_paths_bulk(db, asked, TIER_TABLES))
    assert [p.request_id for p in bulk] == present


# -- directed edge cases ----------------------------------------------


#: Two same-id mysql hops with *equal* arrival times: hop order can
#: only come from the rowid tiebreaker.
DUPLICATE_ARRIVAL_ROWS = {
    "apache_events_web1": [("R1", 100, 900, 150, 850)],
    "mysql_events_db1": [
        ("R1", 200, 300, None, None),
        ("R1", 200, 700, None, None),
    ],
}


def duplicate_arrival_db():
    return build_warehouse(DUPLICATE_ARRIVAL_ROWS)


@pytest.mark.parametrize("fraction", [0.0, 1e9])
def test_duplicate_arrival_hops_keep_scalar_order(fraction):
    db = duplicate_arrival_db()
    expected = expected_path(DUPLICATE_ARRIVAL_ROWS, TIER_TABLES, "R1")
    (bulk,) = reconstruct_paths_bulk(
        db, ["R1"], TIER_TABLES, full_scan_fraction=fraction
    )
    assert paths_equal(bulk, expected)
    assert paths_equal(reconstruct_path(db, "R1", TIER_TABLES), expected)
    # The tie really exists — the test is vacuous otherwise.
    arrivals = [h.upstream_arrival_us for h in expected.hops]
    assert len(arrivals) != len(set(arrivals))
    assert [h.upstream_departure_us for h in expected.hops] == [900, 300, 700]


def test_duplicate_requested_ids_collapse():
    db = duplicate_arrival_db()
    bulk = list(reconstruct_paths_bulk(db, ["R1", "R1", "R1"], TIER_TABLES))
    assert [p.request_id for p in bulk] == ["R1"]


def test_missing_id_strict_raises():
    db = duplicate_arrival_db()
    with pytest.raises(AnalysisError):
        list(reconstruct_paths_bulk(db, ["R1", "RNOPE"], TIER_TABLES, strict=True))


def test_empty_id_list_yields_nothing():
    assert list(reconstruct_paths_bulk(duplicate_arrival_db(), [], TIER_TABLES)) == []


def test_first_seen_order_preserved():
    db = build_warehouse(
        {
            "apache_events_web1": [
                ("RB", 500, 600, None, None),
                ("RA", 100, 200, None, None),
            ],
        }
    )
    bulk = list(reconstruct_paths_bulk(db, ["RB", "RA"], TIER_TABLES))
    assert [p.request_id for p in bulk] == ["RB", "RA"]


def test_chunked_in_probes_cross_chunk_boundary():
    """More ids than one IN(...) chunk holds still joins correctly."""
    n = 2_000  # > the 900-variable chunk size, twice over
    rows = [(f"R{i:06d}", 10 * i, 10 * i + 5, None, None) for i in range(n)]
    db = build_warehouse({"apache_events_web1": rows})
    ids = [f"R{i:06d}" for i in range(n)]
    bulk = list(
        reconstruct_paths_bulk(
            db, ids, TIER_TABLES, full_scan_fraction=1e9
        )
    )
    assert [p.request_id for p in bulk] == ids
    assert all(len(p.hops) == 1 for p in bulk)


def test_tables_without_request_id_skipped():
    db = duplicate_arrival_db()
    db.create_table("sar_web1", [("timestamp_us", "INTEGER")])
    tables = dict(TIER_TABLES)
    tables["sar"] = "sar_web1"
    expected = expected_path(DUPLICATE_ARRIVAL_ROWS, tables, "R1")
    (bulk,) = reconstruct_paths_bulk(db, ["R1"], tables)
    assert paths_equal(bulk, expected)
    assert paths_equal(reconstruct_path(db, "R1", tables), expected)
