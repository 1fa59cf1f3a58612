"""mScopeDB — the dynamic data warehouse.

A sqlite-backed store with the paper's structure (Section III-C): four
*static* tables hold load-time metadata (experiment configuration, host
configuration, the monitor registry, and the load catalog), while the
measurement tables are created *dynamically* by the mScope Data
Importer as logs arrive — their schemas inferred bottom-up from the
data, never declared in advance.  A fifth internal static table, the
schema catalog, records each dynamic column's declared type so later
type widenings (a REAL value landing in an INTEGER column) stay
visible through :meth:`MScopeDB.table_schema`.

Bulk loading: :meth:`MScopeDB.bulk_load` defers commits across any
number of loads (one transaction per context), and file-backed
databases run in WAL journal mode so readers never block the loader.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import sqlite3
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.errors import QueryError, WarehouseError

__all__ = [
    "MScopeDB",
    "RESPONSE_TIME_SQL",
    "STATIC_TABLES",
    "merge_sorted",
    "quote_identifier",
    "table_content_lines",
]

#: The four static metadata tables (Section III-C), plus the internal
#: schema catalog backing dynamic-column type widening, the ingest
#: error ledger populated by lenient error policies, and the pipeline
#: telemetry tables (created lazily — only a telemetry-enabled
#: transform materializes them, so telemetry-off warehouses stay
#: byte-identical to pre-telemetry ones).
STATIC_TABLES = (
    "experiment_meta",
    "host_config",
    "monitor_registry",
    "load_catalog",
    "schema_catalog",
    "ingest_errors",
    "pipeline_metrics",
    "pipeline_workers",
    "sampling_ledger",
    "conflated_requests",
)

#: Rows per ``executemany`` batch during bulk inserts.
_INSERT_BATCH_SIZE = 5000

#: Bound variables held back from :meth:`MScopeDB.max_variables` when
#: deriving the ``query_in_chunks`` chunk size, leaving room for the
#: query's own non-chunk parameters (epoch offsets, window bounds).
_IN_CHUNK_HEADROOM = 32

#: The variable limit assumed when the connection cannot report one
#: (``sqlite3.Connection.getlimit`` arrived in Python 3.11): sqlite's
#: historical SQLITE_MAX_VARIABLE_NUMBER compile-time default.
_FALLBACK_MAX_VARIABLES = 999

#: The expression the explorer's response-time queries sort and
#: aggregate on; :meth:`MScopeDB.create_response_time_index` indexes
#: exactly this expression so those queries never fall back to a full
#: scan (sqlite matches expression indexes structurally).
RESPONSE_TIME_SQL = "upstream_departure_us - upstream_arrival_us"

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_ALLOWED_TYPES = {"INTEGER", "REAL", "TEXT"}


def quote_identifier(name: str) -> str:
    """Validate and quote a SQL identifier derived from log data."""
    if not _IDENTIFIER_RE.match(name):
        raise WarehouseError(f"invalid SQL identifier {name!r}")
    return f'"{name}"'


# ----------------------------------------------------------------------
# DDL rendering — the one copy both layouts execute.  The monolith runs
# these statements on its own connection, the sharded warehouse on each
# shard file, so identifier/type validation and index names cannot
# differ between a monolithic and a sharded warehouse.


def check_column_type(column: str, sql_type: str) -> str:
    """Return ``sql_type`` if a dynamic column may have it, else raise."""
    if sql_type not in _ALLOWED_TYPES:
        raise WarehouseError(
            f"column {column!r} has unsupported type {sql_type!r}"
        )
    return sql_type


def column_defs_sql(columns: Sequence[tuple[str, str]]) -> str:
    """The validated ``"name" TYPE, ...`` list of a ``CREATE TABLE``."""
    return ", ".join(
        f"{quote_identifier(column)} {check_column_type(column, sql_type)}"
        for column, sql_type in columns
    )


def create_table_sql(name: str, columns: Sequence[tuple[str, str]]) -> str:
    """``CREATE TABLE IF NOT EXISTS`` for a dynamic table.

    Rendering *is* the validation: a reserved or malformed table name,
    an empty column list, a malformed column name or an unsupported
    type raises :class:`WarehouseError` before any SQL exists to run.
    """
    if not columns:
        raise WarehouseError(f"table {name!r} needs at least one column")
    if name in STATIC_TABLES:
        raise WarehouseError(f"{name!r} is a reserved static table")
    return (
        f"CREATE TABLE IF NOT EXISTS {quote_identifier(name)} "
        f"({column_defs_sql(columns)})"
    )


def add_column_sql(table: str, column: str, sql_type: str) -> str:
    """``ALTER TABLE ... ADD COLUMN`` (sqlite backfills NULL)."""
    return (
        f"ALTER TABLE {quote_identifier(table)} ADD COLUMN "
        f"{quote_identifier(column)} {check_column_type(column, sql_type)}"
    )


def _index_sql(table: str, name: str, keys_sql: str) -> str:
    return (
        f"CREATE INDEX IF NOT EXISTS {quote_identifier(f'idx_{table}_{name}')} "
        f"ON {quote_identifier(table)} ({keys_sql})"
    )


def column_index_sql(table: str, column: str) -> str:
    """DDL behind :meth:`MScopeDB.create_index`."""
    return _index_sql(table, column, quote_identifier(column))


def response_time_index_sql(table: str) -> str:
    """DDL behind :meth:`MScopeDB.create_response_time_index`."""
    return _index_sql(table, "response_time", f"{RESPONSE_TIME_SQL} DESC")


def covering_index_sql(table: str, columns: Sequence[str], name: str) -> str:
    """DDL behind :meth:`MScopeDB.create_covering_index`."""
    return _index_sql(
        table, name, ", ".join(quote_identifier(c) for c in columns)
    )


def set_file_pragmas(conn: sqlite3.Connection) -> None:
    """Journal settings of every file-backed warehouse database.

    WAL lets concurrent readers proceed while a bulk load holds the
    write lock, and NORMAL sync is safe under WAL.
    """
    conn.execute("PRAGMA journal_mode = WAL")
    conn.execute("PRAGMA synchronous = NORMAL")


def _content_sort_key(row: Sequence[Any]) -> list[tuple]:
    """A total, storage-independent sort key for one table row.

    Ranks NULL < numeric < text < other (matching sqlite collation
    between storage classes), compares numerics as floats so an
    INTEGER-affinity ``2`` and a REAL ``2.0`` land adjacently, and
    breaks every remaining tie on ``repr`` so the order never depends
    on which warehouse layout produced the rows.
    """
    key = []
    for value in row:
        if value is None:
            key.append((0, 0.0, "", ""))
        elif isinstance(value, (int, float)):
            key.append((1, float(value), "", repr(value)))
        elif isinstance(value, str):
            key.append((2, 0.0, value, repr(value)))
        else:
            key.append((3, 0.0, "", repr(value)))
    return key


def table_content_lines(
    table: str,
    schema: Sequence[tuple[str, str]],
    rows: Iterable[Sequence[Any]],
) -> Iterator[str]:
    """Canonical content lines for one table: schema, then sorted rows.

    The layout-independent counterpart of a raw SQL dump — row order is
    canonicalized (see :func:`_content_sort_key`), so a partitioned
    warehouse and a monolithic one holding the same data render the
    same lines.  Conformance's shard≡monolith pair streams these
    line-by-line; memory stays bounded by one table's rows.
    """
    rendered = ", ".join(f"{column} {sql_type}" for column, sql_type in schema)
    yield f"TABLE {table} ({rendered})"
    for row in sorted(rows, key=_content_sort_key):
        yield repr(tuple(row))


def merge_sorted(
    *columns: int, descending: bool = False, limit: int | None = None
) -> Callable[[list[list[tuple]]], list[tuple]]:
    """A ``merge`` for :meth:`MScopeDB.query_table` that re-establishes
    the statement's ``ORDER BY`` (and ``LIMIT``) over per-shard results.

    ``columns`` are the positions of the sort keys in the statement's
    *output*, all ascending or all ``descending``; NULLs sort lowest,
    as in sqlite.  The sort is stable over the parts as given — shards
    in time order, rowid order within each — so equal keys keep the
    tie-break a trailing ``, rowid`` gives them on the monolith.
    """

    def null_safe(row: tuple) -> list[tuple]:
        return [(row[c] is not None, row[c]) for c in columns]

    def merge(parts: list[list[tuple]]) -> list[tuple]:
        rows = [row for part in parts for row in part]
        try:
            # No Python call per row; a NULL key raises on comparison.
            rows = sorted(rows, key=itemgetter(*columns), reverse=descending)
        except TypeError:
            rows.sort(key=null_safe, reverse=descending)
        return rows if limit is None else rows[:limit]

    return merge


class MScopeDB:
    """The milliScope dynamic data warehouse.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (the default) for an
        in-memory warehouse.
    threadsafe:
        Open the connection with ``check_same_thread=False`` so a
        long-lived owner (the ``mscope serve`` daemon) can use it from
        executor threads.  Python's sqlite3 serializes access at the
        connection level; the *caller* still must not interleave
        transactions from concurrent threads.

    Examples
    --------
    >>> db = MScopeDB()
    >>> db.create_table("collectl_web1", [("timestamp_us", "INTEGER"),
    ...                                   ("cpu_user_pct", "REAL")])
    >>> db.insert_rows("collectl_web1", ["timestamp_us", "cpu_user_pct"],
    ...                [(1000, 12.5)])
    1
    """

    def __init__(
        self, path: str | Path = ":memory:", threadsafe: bool = False
    ) -> None:
        self.path = str(path)
        self.threadsafe = threadsafe
        self._conn = sqlite3.connect(
            self.path, check_same_thread=not threadsafe
        )
        self._bulk_depth = 0
        #: table → resolved (column, type) pairs; every DDL path and
        #: catalog widening invalidates its table's entry, so a cached
        #: schema is always what :meth:`table_schema` would recompute.
        self._schema_cache: dict[str, list[tuple[str, str]]] = {}
        if self.path == ":memory:":
            self._conn.execute("PRAGMA journal_mode = MEMORY")
        else:
            set_file_pragmas(self._conn)
        self._create_static_tables()

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "MScopeDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise WarehouseError("warehouse is closed")
        return self._conn

    def _commit(self) -> None:
        """Commit now, unless a :meth:`bulk_load` context defers it."""
        if self._bulk_depth == 0:
            self._require_conn().commit()

    @contextlib.contextmanager
    def bulk_load(self) -> Iterator["MScopeDB"]:
        """Defer commits for the duration of the context.

        Every write inside the context joins one transaction that
        commits when the outermost context exits cleanly (contexts
        nest; inner exits are no-ops).  On an exception the
        transaction rolls back, so a load is all-or-nothing at the
        granularity of the outermost context.
        """
        conn = self._require_conn()
        self._bulk_depth += 1
        try:
            yield self
        except BaseException:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                conn.rollback()
            raise
        else:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                self._commit()

    def iterdump(self) -> Iterator[str]:
        """The SQL dump of the whole warehouse (schema + rows).

        Deterministic for a given sequence of DDL/DML statements, so
        two warehouses loaded identically dump identically — the
        parallel/serial equivalence tests compare exactly this.  A
        *generator*: conformance diffs two dumps line-by-line without
        ever holding either one whole in memory (wrap in ``list`` to
        materialize).
        """
        yield from self._require_conn().iterdump()

    def iterdump_content(self) -> Iterator[str]:
        """Canonical *content* lines: every table's schema plus its
        rows in a storage-independent order.

        Unlike :meth:`iterdump` this ignores physical layout (rowids,
        insert order, page structure), so it is the dump a partitioned
        warehouse can be compared against: the sharded layout inherits
        this method and differs only in where :meth:`query_table`
        finds a dynamic table's rows, so both layouts loaded from the
        same logs yield identical lines (the ``warehouse-sharded``
        conformance pair).  Streams one table at a time; memory is
        bounded by the largest table.
        """
        for table in self.tables():
            schema = self.table_schema(table)
            columns = ", ".join(quote_identifier(c) for c, _ in schema)
            rows = self.query_table(
                table, f"SELECT {columns} FROM {quote_identifier(table)}"
            )
            yield from table_content_lines(table, schema, rows)

    # ------------------------------------------------------------------
    # static tables

    def _create_static_tables(self) -> None:
        conn = self._require_conn()
        conn.executescript(
            """
            CREATE TABLE IF NOT EXISTS experiment_meta (
                key TEXT PRIMARY KEY,
                value TEXT NOT NULL
            );
            CREATE TABLE IF NOT EXISTS host_config (
                hostname TEXT PRIMARY KEY,
                tier TEXT,
                cores INTEGER,
                disk_bandwidth_bytes_per_sec INTEGER
            );
            CREATE TABLE IF NOT EXISTS monitor_registry (
                monitor TEXT NOT NULL,
                hostname TEXT NOT NULL,
                source_path TEXT NOT NULL,
                parser TEXT NOT NULL,
                table_name TEXT NOT NULL,
                PRIMARY KEY (monitor, hostname, source_path)
            );
            CREATE TABLE IF NOT EXISTS load_catalog (
                table_name TEXT NOT NULL,
                source_path TEXT NOT NULL,
                rows_loaded INTEGER NOT NULL,
                columns INTEGER NOT NULL,
                PRIMARY KEY (table_name, source_path)
            );
            CREATE TABLE IF NOT EXISTS schema_catalog (
                table_name TEXT NOT NULL,
                column_name TEXT NOT NULL,
                sql_type TEXT NOT NULL,
                PRIMARY KEY (table_name, column_name)
            );
            CREATE TABLE IF NOT EXISTS ingest_errors (
                source_path TEXT NOT NULL,
                line_number INTEGER NOT NULL,
                parser TEXT NOT NULL,
                reason TEXT NOT NULL,
                excerpt TEXT NOT NULL DEFAULT '',
                PRIMARY KEY (source_path, line_number)
            );
            """
        )
        self._commit()

    def set_experiment_meta(self, key: str, value: str) -> None:
        """Record one experiment metadata entry."""
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO experiment_meta (key, value) VALUES (?, ?)",
            (key, str(value)),
        )
        self._commit()

    def get_experiment_meta(self, key: str) -> str | None:
        """Read one experiment metadata entry."""
        row = self._require_conn().execute(
            "SELECT value FROM experiment_meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def register_host(
        self,
        hostname: str,
        tier: str,
        cores: int,
        disk_bandwidth: int,
    ) -> None:
        """Record one host's configuration."""
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO host_config VALUES (?, ?, ?, ?)",
            (hostname, tier, cores, disk_bandwidth),
        )
        self._commit()

    def register_monitor(
        self,
        monitor: str,
        hostname: str,
        source_path: str,
        parser: str,
        table_name: str,
    ) -> None:
        """Record the provenance of one loaded monitor log."""
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO monitor_registry VALUES (?, ?, ?, ?, ?)",
            (monitor, hostname, source_path, parser, table_name),
        )
        self._commit()

    def record_load(
        self, table_name: str, source_path: str, rows: int, columns: int
    ) -> None:
        """Record one load into the catalog."""
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO load_catalog VALUES (?, ?, ?, ?)",
            (table_name, source_path, rows, columns),
        )
        self._commit()

    def record_ingest_error(
        self,
        source_path: str,
        line_number: int,
        parser: str,
        reason: str,
        excerpt: str = "",
    ) -> None:
        """Record one damaged line/record/file in the error ledger.

        ``line_number`` is 1-based; ``0`` marks a file-level failure.
        Keyed on ``(source_path, line_number)`` so re-recording the
        same damage (e.g. every :class:`LiveTransformer` refresh
        re-reads the file) is idempotent.
        """
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO ingest_errors VALUES (?, ?, ?, ?, ?)",
            (source_path, line_number, parser, reason, excerpt),
        )
        self._commit()

    def ingest_errors(self, source_path: str | None = None) -> list[tuple]:
        """``(source_path, line_number, parser, reason, excerpt)`` rows.

        Ordered by file then line; optionally filtered to one file.
        """
        sql = (
            "SELECT source_path, line_number, parser, reason, excerpt "
            "FROM ingest_errors"
        )
        params: tuple = ()
        if source_path is not None:
            sql += " WHERE source_path = ?"
            params = (source_path,)
        sql += " ORDER BY source_path, line_number"
        return self._require_conn().execute(sql, params).fetchall()

    def ingest_error_count(self) -> int:
        """Number of recorded ingest errors."""
        return self._require_conn().execute(
            "SELECT COUNT(*) FROM ingest_errors"
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # sampling ledger

    def _ensure_sampling_tables(self) -> None:
        """Create the sampling tables on first use (lazily).

        Like the telemetry tables, deliberately *not* part of
        :meth:`_create_static_tables`: an unsampled warehouse must dump
        byte-identically to one from before the sampling layer existed.
        """
        conn = self._require_conn()
        conn.executescript(
            """
            CREATE TABLE IF NOT EXISTS sampling_ledger (
                table_name TEXT NOT NULL,
                source_path TEXT NOT NULL,
                policy TEXT NOT NULL,
                rows_seen INTEGER NOT NULL,
                rows_kept INTEGER NOT NULL,
                bytes_seen INTEGER NOT NULL,
                bytes_kept INTEGER NOT NULL,
                PRIMARY KEY (table_name, source_path)
            );
            CREATE TABLE IF NOT EXISTS conflated_requests (
                table_name TEXT NOT NULL,
                interaction TEXT NOT NULL,
                requests INTEGER NOT NULL,
                records INTEGER NOT NULL,
                latency_sum_us INTEGER NOT NULL,
                latency_min_us INTEGER NOT NULL,
                latency_max_us INTEGER NOT NULL,
                PRIMARY KEY (table_name, interaction)
            );
            """
        )

    def record_sampling(
        self,
        table_name: str,
        source_path: str,
        policy: str,
        rows_seen: int,
        rows_kept: int,
        bytes_seen: int,
        bytes_kept: int,
    ) -> None:
        """Record one stream's cumulative sampling counts in the ledger.

        Keyed on ``(table_name, source_path)`` with *cumulative* counts
        so a live transformer re-recording after every refresh is
        idempotent and converges on the batch transform's ledger (the
        ``load_catalog`` precedent).
        """
        self._ensure_sampling_tables()
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO sampling_ledger "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                table_name, source_path, policy,
                rows_seen, rows_kept, bytes_seen, bytes_kept,
            ),
        )
        self._commit()

    def record_conflated(
        self,
        table_name: str,
        interaction: str,
        requests: int,
        records: int,
        latency_sum_us: int,
        latency_min_us: int,
        latency_max_us: int,
    ) -> None:
        """Record one request class's cumulative conflation aggregate."""
        self._ensure_sampling_tables()
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO conflated_requests "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                table_name, interaction, requests, records,
                latency_sum_us, latency_min_us, latency_max_us,
            ),
        )
        self._commit()

    def sampling_ledger(self) -> list[tuple]:
        """``(table_name, source_path, policy, rows_seen, rows_kept,
        bytes_seen, bytes_kept)`` rows, ordered by table then source."""
        if "sampling_ledger" not in self.tables():
            return []
        return self._require_conn().execute(
            "SELECT table_name, source_path, policy, rows_seen, "
            "rows_kept, bytes_seen, bytes_kept FROM sampling_ledger "
            "ORDER BY table_name, source_path"
        ).fetchall()

    def sampling_summary(self) -> dict | None:
        """Warehouse-wide sampling totals, or None when never sampled.

        The reduction factors are *measured* over the ledger (every
        policy counts what it drops), not estimated from the configured
        rate.
        """
        rows = self.sampling_ledger()
        if not rows:
            return None
        rows_seen = sum(r[3] for r in rows)
        rows_kept = sum(r[4] for r in rows)
        bytes_seen = sum(r[5] for r in rows)
        bytes_kept = sum(r[6] for r in rows)
        return {
            "policies": sorted({r[2] for r in rows}),
            "rows_seen": rows_seen,
            "rows_kept": rows_kept,
            "bytes_seen": bytes_seen,
            "bytes_kept": bytes_kept,
            "row_reduction": (
                rows_seen / rows_kept if rows_kept else float(rows_seen)
            ),
            "byte_reduction": (
                bytes_seen / bytes_kept if bytes_kept else float(bytes_seen)
            ),
        }

    def conflated_requests(self) -> list[tuple]:
        """``(table_name, interaction, requests, records, latency_sum_us,
        latency_min_us, latency_max_us)`` rows, ordered by table, class."""
        if "conflated_requests" not in self.tables():
            return []
        return self._require_conn().execute(
            "SELECT table_name, interaction, requests, records, "
            "latency_sum_us, latency_min_us, latency_max_us "
            "FROM conflated_requests ORDER BY table_name, interaction"
        ).fetchall()

    # ------------------------------------------------------------------
    # pipeline telemetry

    def _ensure_telemetry_tables(self) -> None:
        """Create the telemetry tables on first use (lazily).

        Deliberately *not* part of :meth:`_create_static_tables`: a
        warehouse loaded with telemetry off must dump byte-identically
        to one from before the telemetry layer existed.
        """
        conn = self._require_conn()
        conn.executescript(
            """
            CREATE TABLE IF NOT EXISTS pipeline_metrics (
                seq INTEGER PRIMARY KEY,
                stage TEXT NOT NULL,
                hostname TEXT NOT NULL,
                source_path TEXT NOT NULL,
                records INTEGER NOT NULL,
                bytes INTEGER NOT NULL,
                errors INTEGER NOT NULL,
                duration_us INTEGER NOT NULL
            );
            CREATE TABLE IF NOT EXISTS pipeline_workers (
                worker TEXT PRIMARY KEY,
                spans INTEGER NOT NULL,
                busy_us INTEGER NOT NULL,
                utilization REAL NOT NULL
            );
            """
        )

    def replace_pipeline_metrics(
        self, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Replace the persisted span rows with one run's telemetry.

        ``rows`` are ``(stage, hostname, source_path, records, bytes,
        errors, duration_us)`` tuples **in single-writer drain order**
        — the sequence number is assigned here, so row order in the
        warehouse always mirrors ingest order.  Returns the row count.
        """
        self._ensure_telemetry_tables()
        conn = self._require_conn()
        conn.execute("DELETE FROM pipeline_metrics")
        numbered = [(seq, *row) for seq, row in enumerate(rows)]
        conn.executemany(
            "INSERT INTO pipeline_metrics VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            numbered,
        )
        self._commit()
        return len(numbered)

    def append_pipeline_metrics(
        self,
        rows: Iterable[Sequence[Any]],
        replace_prefix: str | None = None,
    ) -> int:
        """Append span rows after the persisted pipeline telemetry.

        The analysis engine's spans land *next to* the ingest stages —
        appending (rather than :meth:`replace_pipeline_metrics`, which
        wipes the table) keeps a transform's telemetry intact while
        ``mscope stats`` gains the analysis rows.  ``replace_prefix``
        first deletes rows whose stage starts with the prefix, so
        re-running a diagnosis replaces its own spans idempotently.
        Returns the appended row count.
        """
        self._ensure_telemetry_tables()
        conn = self._require_conn()
        if replace_prefix is not None:
            conn.execute(
                "DELETE FROM pipeline_metrics WHERE stage LIKE ? || '%'",
                (replace_prefix,),
            )
        next_seq = conn.execute(
            "SELECT COALESCE(MAX(seq), -1) + 1 FROM pipeline_metrics"
        ).fetchone()[0]
        numbered = [(next_seq + i, *row) for i, row in enumerate(rows)]
        conn.executemany(
            "INSERT INTO pipeline_metrics VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            numbered,
        )
        self._commit()
        return len(numbered)

    def replace_pipeline_workers(
        self, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Replace the per-worker rollup: ``(worker, spans, busy_us,
        utilization)`` rows."""
        self._ensure_telemetry_tables()
        conn = self._require_conn()
        conn.execute("DELETE FROM pipeline_workers")
        cursor = conn.executemany(
            "INSERT INTO pipeline_workers VALUES (?, ?, ?, ?)", rows
        )
        inserted = cursor.rowcount
        self._commit()
        return inserted

    def has_pipeline_metrics(self) -> bool:
        """Whether this warehouse holds persisted pipeline telemetry."""
        return "pipeline_metrics" in self.tables()

    def pipeline_metrics(self) -> list[tuple]:
        """``(stage, hostname, source_path, records, bytes, errors,
        duration_us)`` rows in drain order (empty when telemetry was
        off)."""
        if not self.has_pipeline_metrics():
            return []
        return self._require_conn().execute(
            "SELECT stage, hostname, source_path, records, bytes, errors, "
            "duration_us FROM pipeline_metrics ORDER BY seq"
        ).fetchall()

    def pipeline_workers(self) -> list[tuple]:
        """``(worker, spans, busy_us, utilization)`` rollup rows."""
        if "pipeline_workers" not in self.tables():
            return []
        return self._require_conn().execute(
            "SELECT worker, spans, busy_us, utilization "
            "FROM pipeline_workers ORDER BY worker"
        ).fetchall()

    # ------------------------------------------------------------------
    # dynamic tables

    def create_table(
        self, name: str, columns: Sequence[tuple[str, str]]
    ) -> None:
        """Create a dynamic table with the given ``(name, type)`` columns."""
        conn = self._require_conn()
        conn.execute(create_table_sql(name, columns))
        conn.executemany(
            "INSERT OR REPLACE INTO schema_catalog VALUES (?, ?, ?)",
            [(name, column, sql_type) for column, sql_type in columns],
        )
        self._schema_cache.pop(name, None)
        self._commit()

    def record_column_type(self, table: str, column: str, sql_type: str) -> None:
        """Record (or widen) a dynamic column's type in the catalog.

        sqlite's type affinity stores wider values in a narrower
        column without rewriting the table, so a widening is purely a
        catalog update — :meth:`table_schema` then reports the
        recorded type instead of the column's original declaration.
        """
        check_column_type(column, sql_type)
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO schema_catalog VALUES (?, ?, ?)",
            (table, column, sql_type),
        )
        self._schema_cache.pop(table, None)
        self._commit()

    def create_index(self, table: str, column: str) -> None:
        """Create (if absent) a single-column index on a dynamic table.

        The importer indexes ``request_id`` and ``timestamp_us`` so the
        cross-tier ID joins (Figure 5) and windowed metric scans stay
        fast as the warehouse grows.
        """
        self._require_conn().execute(column_index_sql(table, column))
        self._commit()

    def create_response_time_index(self, table: str) -> None:
        """Index an event table's response-time expression, descending.

        The explorer's ``slowest_requests`` sorts on
        :data:`RESPONSE_TIME_SQL`; indexing the identical expression
        lets sqlite satisfy the ``ORDER BY ... DESC LIMIT n`` straight
        off the index instead of sorting the whole table.
        """
        self._require_conn().execute(response_time_index_sql(table))
        self._commit()

    def create_covering_index(
        self, table: str, columns: Sequence[str], name: str
    ) -> None:
        """Create a multi-column (covering) index on a dynamic table.

        A query reading only the indexed columns scans the index and
        never touches the table — the shape ``interaction_stats``'s
        GROUP BY needs.
        """
        self._require_conn().execute(covering_index_sql(table, columns, name))
        self._commit()

    def indexes(self, table: str) -> list[str]:
        """Names of the indexes on ``table`` (in any of its shards)."""
        rows = self.query_table(
            table,
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND tbl_name = ?",
            (table,),
        )
        return sorted({name for name, in rows})

    def add_column(self, table: str, column: str, sql_type: str) -> None:
        """Add a column to an existing dynamic table (NULL backfill)."""
        conn = self._require_conn()
        conn.execute(add_column_sql(table, column, sql_type))
        conn.execute(
            "INSERT OR REPLACE INTO schema_catalog VALUES (?, ?, ?)",
            (table, column, sql_type),
        )
        self._schema_cache.pop(table, None)
        self._commit()

    def insert_rows(
        self,
        table: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> int:
        """Bulk-insert rows in ``executemany`` batches; returns the count.

        ``rows`` may be any iterable (a generator streams through in
        bounded memory); batching keeps each ``executemany`` call's
        argument list at :data:`_INSERT_BATCH_SIZE` rows.
        """
        column_sql = ", ".join(quote_identifier(c) for c in columns)
        placeholders = ", ".join("?" for _ in columns)
        sql = (
            f"INSERT INTO {quote_identifier(table)} ({column_sql}) "
            f"VALUES ({placeholders})"
        )
        conn = self._require_conn()
        inserted = 0
        iterator = iter(rows)
        while True:
            batch = list(itertools.islice(iterator, _INSERT_BATCH_SIZE))
            if not batch:
                break
            cursor = conn.executemany(sql, batch)
            inserted += cursor.rowcount
        self._commit()
        return inserted

    # ------------------------------------------------------------------
    # introspection & querying

    def tables(self) -> list[str]:
        """All table names, static and dynamic."""
        rows = self._require_conn().execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        ).fetchall()
        return [r[0] for r in rows]

    def dynamic_tables(self) -> list[str]:
        """Only the dynamically created measurement tables."""
        return [t for t in self.tables() if t not in STATIC_TABLES]

    def table_schema(self, table: str) -> list[tuple[str, str]]:
        """``(column, type)`` pairs of one table.

        Types recorded in the schema catalog (including widenings
        applied after load) override the column's original DDL
        declaration.  Results are cached per table; every DDL path
        (:meth:`create_table`, :meth:`add_column`) and catalog update
        (:meth:`record_column_type`) invalidates its table's entry, so
        per-request callers such as the causal-path joins never repay
        the two catalog queries.
        """
        cached = self._schema_cache.get(table)
        if cached is not None:
            return list(cached)
        conn = self._require_conn()
        rows = conn.execute(
            f"PRAGMA table_info({quote_identifier(table)})"
        ).fetchall()
        if not rows:
            raise QueryError(f"no such table {table!r}")
        overrides = dict(
            conn.execute(
                "SELECT column_name, sql_type FROM schema_catalog "
                "WHERE table_name = ?",
                (table,),
            ).fetchall()
        )
        schema = [(r[1], overrides.get(r[1], r[2])) for r in rows]
        self._schema_cache[table] = schema
        return list(schema)

    def row_count(self, table: str) -> int:
        """Number of rows in ``table``."""
        if table not in self.tables():
            raise QueryError(f"no such table {table!r}")
        counts = self.query_table(
            table, f"SELECT COUNT(*) FROM {quote_identifier(table)}"
        )
        return sum(count for count, in counts)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Run an arbitrary read query on this database.

        On the sharded layout that is ``manifest.db`` — static tables
        only; a read of a dynamic table that must work on either
        layout goes through :meth:`query_table`.
        """
        try:
            return self._require_conn().execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise QueryError(f"query failed: {exc}") from exc

    def max_variables(self) -> int:
        """The connection's actual bound-variable limit.

        Read from ``SQLITE_LIMIT_VARIABLE_NUMBER`` where the runtime
        exposes it (Python 3.11+); otherwise sqlite's historical
        compile-time default of 999.  Modern builds allow 250k
        variables, so chunked ``IN (...)`` queries sized from this run
        orders of magnitude fewer statements than the old hardcoded
        900-id chunks.
        """
        conn = self._require_conn()
        getlimit = getattr(conn, "getlimit", None)
        if getlimit is None:
            return _FALLBACK_MAX_VARIABLES
        return int(getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER))

    def in_chunk_size(self) -> int:
        """Ids per :meth:`query_in_chunks` statement, derived from the
        connection's variable limit (with headroom for the query's own
        non-chunk parameters)."""
        return max(1, self.max_variables() - _IN_CHUNK_HEADROOM)

    def query_table(
        self,
        table: str,
        sql: str,
        params: Sequence[Any] = (),
        *,
        window: tuple[int | None, int | None] = (None, None),
        merge: Callable[[list[list[tuple]]], list[tuple]] | None = None,
    ) -> list[tuple]:
        """Run a read that names exactly one dynamic table, ``table``.

        The read both layouts answer.  Here it is :meth:`query`; the
        sharded layout runs ``sql`` on each shard holding ``table``
        that overlaps ``window`` (warehouse timestamps ``[start,
        stop)``, ``None`` = unbounded) and returns the per-shard
        results concatenated in shard order, or ``merge(parts)`` —
        which a statement with an ``ORDER BY``, ``LIMIT`` or aggregate
        needs (:func:`merge_sorted`).  ``window`` selects partitions,
        not rows: the statement keeps its own ``WHERE`` bounds, and
        the caller widens the window when rows routed outside it
        matter (requests in flight across a boundary).
        """
        return self.query(sql, params)

    def query_in_chunks(
        self,
        table: str,
        sql: str,
        values: Sequence[Any],
        chunk_size: int | None = None,
        *,
        merge: Callable[[list[list[tuple]]], list[tuple]] | None = None,
    ) -> list[tuple]:
        """Run an ``IN (...)``-style :meth:`query_table` read over
        ``values`` in chunks.

        ``sql`` must contain one ``{placeholders}`` slot that expands
        to the chunk's ``?`` list; chunking keeps each statement under
        the connection's bound-variable limit (:meth:`max_variables`,
        queried rather than assumed — the default chunk size follows
        the build's actual SQLITE_MAX_VARIABLE_NUMBER).  Results are
        concatenated in chunk order, so per-value row groups keep their
        within-chunk ``ORDER BY`` (each value lands in exactly one
        chunk).
        """
        if chunk_size is None:
            chunk_size = self.in_chunk_size()
        if chunk_size <= 0:
            raise QueryError(f"chunk size must be positive: {chunk_size}")
        rows: list[tuple] = []
        for start in range(0, len(values), chunk_size):
            chunk = values[start : start + chunk_size]
            statement = sql.format(placeholders=", ".join("?" for _ in chunk))
            rows.extend(self.query_table(table, statement, chunk, merge=merge))
        return rows

    def query_plan(self, sql: str, params: Sequence[Any] = ()) -> list[str]:
        """The ``EXPLAIN QUERY PLAN`` detail lines for a query.

        The index-regression tests assert these lines mention an index
        (``USING [COVERING] INDEX``) rather than a bare table scan.
        """
        return [
            row[-1] for row in self.query(f"EXPLAIN QUERY PLAN {sql}", params)
        ]

    def fetch_series(
        self,
        table: str,
        time_column: str,
        value_column: str,
        start: int | None = None,
        stop: int | None = None,
    ) -> list[tuple[int, float]]:
        """A ``(time, value)`` series from one table, optionally windowed."""
        sql = (
            f"SELECT {quote_identifier(time_column)}, "
            f"{quote_identifier(value_column)} FROM {quote_identifier(table)}"
        )
        conditions = []
        params: list[Any] = []
        if start is not None:
            conditions.append(f"{quote_identifier(time_column)} >= ?")
            params.append(start)
        if stop is not None:
            conditions.append(f"{quote_identifier(time_column)} < ?")
            params.append(stop)
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        sql += f" ORDER BY {quote_identifier(time_column)}"
        return self.query_table(
            table, sql, params, window=(start, stop), merge=merge_sorted(0)
        )
