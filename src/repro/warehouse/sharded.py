"""ShardedMScopeDB — the host/time-partitioned warehouse.

The monolithic :class:`~repro.warehouse.db.MScopeDB` keeps every
monitor's rows in one sqlite file.  This module partitions the
warehouse into per-``(host, time-window)`` **shard** databases behind
the same API:

* **Writes** route by the dynamic table's host (milliScope tables are
  named ``<monitor>_<hostname>``) and each row's timestamp window.  The
  importer is the one writer: it hands rows to
  :meth:`ShardedMScopeDB.insert_rows`, which opens (and registers in
  the manifest) whichever shard the row's window belongs to — the
  window's own file, or the roll-up a compaction folded it into.
* **Reads** name their table: :meth:`ShardedMScopeDB.query_table` runs
  the caller's statement, unchanged, on each shard file holding that
  table (under its real name, with the importer's indexes) and
  concatenates the per-shard results or hands them to the caller's
  ``merge`` (:func:`~repro.warehouse.db.merge_sorted` re-establishes
  an ``ORDER BY``).  Its ``window=`` argument restricts the read to
  overlapping shards — windowed analysis never opens cold data, and
  :attr:`ShardedMScopeDB.shard_opens` counts exactly what was opened.
  A handle caches its shard read connections, at most
  :data:`_MAX_READERS`, and nothing else — no write can stale a read.
  *Ad-hoc SQL over dynamic tables is a monolith feature*: the
  inherited :meth:`~ShardedMScopeDB.query` reaches ``manifest.db``
  (static tables) only; on shards use ``query_table``, or ``sqlite3``
  on a shard file.
* **Metadata** (the paper's static tables, the schema catalog, ingest
  errors, pipeline telemetry) lives in one small ``manifest.db`` next
  to the shards, alongside the shard manifest itself — the only record
  of which file holds which window and table, and the commit point
  (shard files commit first, the manifest last).  That database *is*
  the warehouse object: :class:`ShardedMScopeDB` subclasses
  :class:`~repro.warehouse.db.MScopeDB` opened on ``manifest.db`` and
  overrides only the dynamic-table surface, so every static-table
  method is the monolith's own.

Layout on disk::

    <root>/manifest.db                  static tables + shard manifest
    <root>/shards/<host>/all.db         host-only sharding (window_us=None)
    <root>/shards/<host>/w<k>.db        time window k (k = ts // window_us)

Retention: :meth:`ShardedMScopeDB.drop_shards_before` deletes cold
windows outright; :meth:`ShardedMScopeDB.compact_shards_before` rolls
them up into one shard per host (same rows, fewer files to open).

Equivalence is held by the conformance suite: a sharded warehouse's
:meth:`ShardedMScopeDB.iterdump_content` must equal the monolith's
line-for-line (the ``warehouse-sharded`` pair).
"""

from __future__ import annotations

import contextlib
import itertools
import sqlite3
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.errors import QueryError, WarehouseError
from repro.warehouse.db import (
    _INSERT_BATCH_SIZE,
    MScopeDB,
    add_column_sql,
    column_index_sql,
    covering_index_sql,
    create_table_sql,
    quote_identifier,
    response_time_index_sql,
    set_file_pragmas,
)

__all__ = [
    "MANIFEST_FILE",
    "ShardInfo",
    "ShardedMScopeDB",
    "host_for_table",
    "open_warehouse",
]

#: The metadata database inside a shard root (its presence is how
#: :func:`open_warehouse` recognizes a sharded warehouse).
MANIFEST_FILE = "manifest.db"

_SHARD_DIR = "shards"

#: Internal manifest-only tables, excluded from dynamic listings and
#: from the canonical content dump (the monolith has no counterpart).
_INTERNAL_TABLES = frozenset(
    {"shard_config", "shard_manifest", "shard_schema", "shard_tables"}
)

#: window_index of the single shard when sharding by host only.
_WHOLE_WINDOW = 0
#: window_index for rows carrying no routable timestamp.
_MISC_WINDOW = -1

#: Read connections one :class:`ShardedMScopeDB` handle keeps open,
#: least recently used closed first.  Above the ~44 shard files of the
#: benchmark's warehouse (so a diagnosis opens each once), far below
#: the usual 1,024 file-descriptor limit however long the history.
_MAX_READERS = 64

#: Columns that route a row into a time window, in priority order.
_TIME_COLUMNS = ("timestamp_us", "upstream_arrival_us")


def host_for_table(table: str, known_hosts: Iterable[str] = ()) -> str:
    """The owning host of a dynamic table.

    milliScope names dynamic tables ``<monitor>_<hostname>``; the
    longest known-host suffix wins (hostnames may contain ``_``), then
    the last ``_``-separated token, then the table name itself.  The
    result only needs to be *consistent* per table — writes and
    reads agree as long as both use the same mapping.
    """
    for host in sorted(known_hosts, key=len, reverse=True):
        if table == host or table.endswith(f"_{host}"):
            return host
    if "_" in table:
        return table.rsplit("_", 1)[1]
    return table


def _window_bounds(
    window_index: int, window_us: int | None
) -> tuple[int | None, int | None]:
    if window_us is None or window_index == _MISC_WINDOW:
        return None, None
    return window_index * window_us, (window_index + 1) * window_us


class ShardInfo:
    """One shard database in the manifest."""

    __slots__ = (
        "host",
        "window_index",
        "start_us",
        "stop_us",
        "relpath",
        "tables",
    )

    def __init__(
        self,
        host: str,
        window_index: int,
        start_us: int | None,
        stop_us: int | None,
        relpath: str,
        tables: Iterable[str] = (),
    ) -> None:
        self.host = host
        self.window_index = window_index
        self.start_us = start_us
        self.stop_us = stop_us
        self.relpath = relpath
        self.tables: set[str] = set(tables)

    @property
    def key(self) -> tuple[str, int]:
        return (self.host, self.window_index)

    def overlaps(self, start: int | None, stop: int | None) -> bool:
        """Whether this shard may hold rows in ``[start, stop)``.

        Unbounded shards (host-only, or the misc window for rows with
        no routable timestamp) always overlap — pruning must never
        drop rows a monolithic query would return.
        """
        if self.start_us is None or self.stop_us is None:
            return True
        if start is not None and self.stop_us <= start:
            return False
        if stop is not None and self.start_us >= stop:
            return False
        return True

    def sort_key(self) -> tuple[int, int]:
        # Window order (misc last): the order per-shard results are
        # combined in must be deterministic and time-major.
        if self.window_index == _MISC_WINDOW:
            return (1, 0)
        return (0, self.window_index)


def _connect_shard(path: Path, threadsafe: bool) -> sqlite3.Connection:
    """Every shard connection, write or read, opens here, so a
    ``threadsafe`` warehouse has no connection bound to one thread."""
    return sqlite3.connect(path, check_same_thread=not threadsafe)


def _shard_relpath(
    host: str, window_index: int, window_us: int | None
) -> str:
    if window_us is None:
        name = "all.db"
    elif window_index == _MISC_WINDOW:
        name = "misc.db"
    else:
        name = f"w{window_index}.db"
    return str(Path(_SHARD_DIR) / host / name)


class ShardedMScopeDB(MScopeDB):
    """The manifest ``MScopeDB`` plus a shard router.

    Parameters
    ----------
    root:
        The warehouse directory (created if missing).  Holds
        ``manifest.db`` plus one subdirectory of shard databases per
        host.
    window_us:
        Time-partition width in microseconds.  ``None`` (the default)
        shards by host only — one shard per host, rows in pure insert
        order, which keeps per-table row order identical to the
        monolith's.  A previously created warehouse remembers its
        width; passing a conflicting value raises.

    The inherited connection is ``manifest.db``: static tables, the
    schema catalog, telemetry, the sampling ledger and :meth:`query`
    are the base class's, untouched.  Only the *dynamic*-table surface
    is overridden — DDL/DML route to the shard files the manifest
    names, and :meth:`query_table` reads shard by shard; see the module
    docstring.  :attr:`shard_opens` / :attr:`shard_open_log` count
    every shard database opened for reading, which is what the
    partition-pruning benchmark asserts on.
    """

    def __init__(
        self,
        root: Path | str,
        window_us: int | None = None,
        threadsafe: bool = False,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: shard key -> open write connection (the base constructor
        #: already commits through :meth:`_commit`).
        self._writes: dict[tuple[str, int], sqlite3.Connection] = {}
        super().__init__(self.root / MANIFEST_FILE, threadsafe=threadsafe)
        #: The warehouse *directory* — read-side consumers reopen by it.
        self.path = str(self.root)
        self._create_shard_tables()
        self.window_us = self._resolve_window(window_us)
        #: table -> index DDL applied to each shard the table lands in.
        self._index_sql: dict[str, list[str]] = {}
        #: shard key -> cached read connection, least recently used
        #: first (at most :data:`_MAX_READERS`).
        self._readers: dict[tuple[str, int], sqlite3.Connection] = {}
        #: Shard databases opened for reading.
        self.shard_opens = 0
        self.shard_open_log: list[str] = []
        self._load_manifest()

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        for conn in itertools.chain(
            self._writes.values(), self._readers.values()
        ):
            conn.close()
        self._writes.clear()
        self._readers.clear()
        super().close()

    def _commit(self) -> None:
        """Commit the shards, then the manifest that names them."""
        if self._bulk_depth == 0:
            for conn in self._writes.values():
                conn.commit()
            super()._commit()

    @contextlib.contextmanager
    def bulk_load(self) -> Iterator["ShardedMScopeDB"]:
        """One transaction per touched file; all roll back together."""
        try:
            with super().bulk_load():
                yield self
        except BaseException:
            if self._bulk_depth == 0:
                for conn in self._writes.values():
                    conn.rollback()
                self._load_manifest()  # forget rolled-back shards
            raise

    def _create_shard_tables(self) -> None:
        self._require_conn().executescript(
            """
            CREATE TABLE IF NOT EXISTS shard_manifest (
                host TEXT NOT NULL,
                window_index INTEGER NOT NULL,
                start_us INTEGER,
                stop_us INTEGER,
                path TEXT NOT NULL,
                PRIMARY KEY (host, window_index)
            );
            CREATE TABLE IF NOT EXISTS shard_tables (
                host TEXT NOT NULL,
                window_index INTEGER NOT NULL,
                table_name TEXT NOT NULL,
                PRIMARY KEY (host, window_index, table_name)
            );
            CREATE TABLE IF NOT EXISTS shard_schema (
                table_name TEXT NOT NULL,
                position INTEGER NOT NULL,
                column_name TEXT NOT NULL,
                declared_type TEXT NOT NULL,
                PRIMARY KEY (table_name, position)
            );
            CREATE TABLE IF NOT EXISTS shard_config (
                key TEXT PRIMARY KEY,
                value TEXT NOT NULL
            );
            """
        )
        self._commit()

    def _resolve_window(self, window_us: int | None) -> int | None:
        conn = self._require_conn()
        row = conn.execute(
            "SELECT value FROM shard_config WHERE key = 'window_us'"
        ).fetchone()
        if row is None:
            # Fresh warehouse: the creation-time choice is permanent.
            conn.execute(
                "INSERT INTO shard_config VALUES ('window_us', ?)",
                ("" if window_us is None else str(window_us),),
            )
            self._commit()
            return window_us
        existing = None if row[0] == "" else int(row[0])
        if window_us is not None and window_us != existing:
            raise WarehouseError(
                f"warehouse {self.path} was created with window_us="
                f"{existing}; cannot reopen with window_us={window_us}"
            )
        return existing

    def _load_manifest(self) -> None:
        """(Re)build the in-memory map of shards from ``manifest.db``."""
        #: logical dynamic table -> declared (column, type) order
        self._registry: dict[str, list[tuple[str, str]]] = {}
        self._table_host: dict[str, str] = {}
        self._shards: dict[tuple[str, int], ShardInfo] = {}
        conn = self._require_conn()
        for host, window_index, start_us, stop_us, relpath in conn.execute(
            "SELECT host, window_index, start_us, stop_us, path "
            "FROM shard_manifest"
        ):
            self._shards[(host, window_index)] = ShardInfo(
                host, window_index, start_us, stop_us, relpath
            )
        for host, window_index, table in conn.execute(
            "SELECT host, window_index, table_name FROM shard_tables"
        ):
            info = self._shards.get((host, window_index))
            if info is not None:
                info.tables.add(table)
                self._table_host.setdefault(table, host)
        for table, column, declared in conn.execute(
            "SELECT table_name, column_name, declared_type FROM shard_schema "
            "ORDER BY table_name, position"
        ):
            self._registry.setdefault(table, []).append((column, declared))
        hosts = self._known_hosts()
        for table in self._registry.keys() - self._table_host.keys():
            # Created but still empty: its name alone places it.
            self._table_host[table] = host_for_table(table, hosts)

    # ------------------------------------------------------------------
    # write routing

    def _known_hosts(self) -> set[str]:
        hosts = {info.host for info in self._shards.values()}
        hosts.update(self._table_host.values())
        hosts.update(
            row[0]
            for row in self._require_conn().execute(
                "SELECT hostname FROM host_config"
            )
        )
        return hosts

    def _host_of(self, table: str) -> str:
        host = self._table_host.get(table)
        if host is None or table not in self._registry:
            raise QueryError(f"no such table {table!r}")
        return host

    def _register(self, info: ShardInfo) -> ShardInfo:
        """Enter a shard and its tables in the manifest."""
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO shard_manifest VALUES (?, ?, ?, ?, ?)",
            (*info.key, info.start_us, info.stop_us, info.relpath),
        )
        conn.executemany(
            "INSERT OR REPLACE INTO shard_tables VALUES (?, ?, ?)",
            [(*info.key, table) for table in sorted(info.tables)],
        )
        self._shards[info.key] = info
        return info

    def _shard_for(self, host: str, window_index: int) -> ShardInfo:
        """The shard that takes ``host``'s rows of one window: its own
        file, else the roll-up that compaction folded the window into,
        else a new file entered in the manifest."""
        info = self._shards.get((host, window_index))
        if info is not None:
            return info
        start_us, stop_us = _window_bounds(window_index, self.window_us)
        for info in self._shards.values():
            if (
                info.host == host
                and start_us is not None
                and info.start_us is not None
                and info.stop_us is not None
                and info.start_us <= start_us < info.stop_us
            ):
                return info
        return self._register(
            ShardInfo(
                host,
                window_index,
                start_us,
                stop_us,
                _shard_relpath(host, window_index, self.window_us),
            )
        )

    def _write_conn(self, info: ShardInfo) -> sqlite3.Connection:
        """A shard's write connection, inside a transaction — DDL
        included, so a rollback leaves the file as the manifest says."""
        conn = self._writes.get(info.key)
        if conn is None:
            self._require_conn()  # close() closed every writer
            conn = _connect_shard(self.root / info.relpath, self.threadsafe)
            set_file_pragmas(conn)
            self._writes[info.key] = conn
        if not conn.in_transaction:
            conn.execute("BEGIN")
        return conn

    def _materialize(self, info: ShardInfo, table: str) -> sqlite3.Connection:
        """The write connection of a shard holding ``table``, creating
        the table (and its indexes) there on its first row."""
        conn = self._write_conn(info)
        if table not in info.tables:
            conn.execute(create_table_sql(table, self._registry[table]))
            for sql in self._index_sql.get(table, []):
                conn.execute(sql)
            info.tables.add(table)
            self._register(info)
        return conn

    def _alter(self, table: str, sql: str) -> None:
        """Run DDL on every manifest shard holding ``table``."""
        for info in self._shards_for(table):
            self._write_conn(info).execute(sql)

    # -- the dynamic-table write API ------------------------------------

    def create_table(
        self, name: str, columns: Sequence[tuple[str, str]]
    ) -> None:
        # Validate first: nothing may reach the manifest, or name a
        # shard directory, that the monolith would have rejected.
        create_table_sql(name, columns)
        if name in self._registry:
            return
        host = host_for_table(name, self._known_hosts())
        (self.root / _SHARD_DIR / host).mkdir(parents=True, exist_ok=True)
        self._registry[name] = list(columns)
        self._table_host[name] = host
        conn = self._require_conn()
        conn.executemany(
            "INSERT OR REPLACE INTO schema_catalog VALUES (?, ?, ?)",
            [(name, column, sql_type) for column, sql_type in columns],
        )
        conn.executemany(
            "INSERT OR REPLACE INTO shard_schema VALUES (?, ?, ?, ?)",
            [
                (name, position, column, sql_type)
                for position, (column, sql_type) in enumerate(columns)
            ],
        )
        self._commit()

    def add_column(self, table: str, column: str, sql_type: str) -> None:
        """Add a column (NULL backfill) to every shard holding ``table``."""
        sql = add_column_sql(table, column, sql_type)
        self._host_of(table)
        self._alter(table, sql)
        self._registry[table].append((column, sql_type))
        conn = self._require_conn()
        conn.execute(
            "INSERT OR REPLACE INTO schema_catalog VALUES (?, ?, ?)",
            (table, column, sql_type),
        )
        conn.execute(
            "INSERT OR REPLACE INTO shard_schema VALUES (?, ?, ?, ?)",
            (table, len(self._registry[table]) - 1, column, sql_type),
        )
        self._commit()

    def insert_rows(
        self,
        table: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> int:
        """Route rows into window shards; returns the inserted count.

        Rows route per row on the timestamp column (``timestamp_us``,
        else ``upstream_arrival_us``; rows with neither land in a
        catch-all shard that pruning never skips), preserving input
        order within each shard — so a shard's rowid order is the
        monolith's insert order restricted to its window.
        """
        host = self._host_of(table)
        time_index: int | None = None
        if self.window_us is not None:
            time_index = next(
                (columns.index(c) for c in _TIME_COLUMNS if c in columns),
                None,
            )
        column_sql = ", ".join(quote_identifier(c) for c in columns)
        placeholders = ", ".join("?" for _ in columns)
        sql = (
            f"INSERT INTO {quote_identifier(table)} ({column_sql}) "
            f"VALUES ({placeholders})"
        )
        inserted = 0
        iterator = iter(rows)
        while batch := list(itertools.islice(iterator, _INSERT_BATCH_SIZE)):
            groups: dict[int, list] = {}
            if time_index is None:
                groups[self._window_of(None)] = batch
            else:
                for row in batch:
                    groups.setdefault(
                        self._window_of(row[time_index]), []
                    ).append(row)
            for window_index in sorted(groups):
                info = self._shard_for(host, window_index)
                cursor = self._materialize(info, table).executemany(
                    sql, groups[window_index]
                )
                inserted += cursor.rowcount
        self._commit()
        return inserted

    def _window_of(self, value: Any) -> int:
        if self.window_us is None:
            return _WHOLE_WINDOW
        if not isinstance(value, (int, float)):
            return _MISC_WINDOW
        return int(value // self.window_us)

    def _add_index(self, table: str, sql: str) -> None:
        known = self._index_sql.setdefault(table, [])
        if sql not in known:
            known.append(sql)
            self._alter(table, sql)
            self._commit()

    def create_index(self, table: str, column: str) -> None:
        self._add_index(table, column_index_sql(table, column))

    def create_response_time_index(self, table: str) -> None:
        self._add_index(table, response_time_index_sql(table))

    def create_covering_index(
        self, table: str, columns: Sequence[str], name: str
    ) -> None:
        self._add_index(table, covering_index_sql(table, columns, name))

    # ------------------------------------------------------------------
    # reads: the statement runs in each shard, the results are merged

    def _shards_for(
        self,
        table: str,
        window: tuple[int | None, int | None] = (None, None),
    ) -> list[ShardInfo]:
        """The shards holding ``table`` that overlap ``window``, in
        window order (misc last)."""
        host = self._table_host.get(table)
        infos = [
            info
            for info in self._shards.values()
            if info.host == host
            and table in info.tables
            and info.overlaps(*window)
        ]
        infos.sort(key=ShardInfo.sort_key)
        return infos

    def _reader(self, info: ShardInfo) -> sqlite3.Connection:
        """The connection that reads one shard: its write connection
        while one is open (it sees its uncommitted rows; not counted as
        a shard open), else this handle's cached reader, opened and
        counted on first use."""
        self._require_conn()  # close() closed every reader
        conn = self._writes.get(info.key)
        if conn is not None:
            return conn
        conn = self._readers.pop(info.key, None)
        if conn is None:
            path = self.root / info.relpath
            if not path.is_file():
                # Connecting would create it, empty.
                raise QueryError(
                    f"query failed on shard {info.relpath}: file is missing"
                )
            while len(self._readers) >= _MAX_READERS:
                self._readers.pop(next(iter(self._readers))).close()
            conn = _connect_shard(path, self.threadsafe)
            self.shard_opens += 1
            self.shard_open_log.append(info.relpath)
        self._readers[info.key] = conn  # most recently used last
        return conn

    def _shard_rows(
        self, info: ShardInfo, sql: str, params: Sequence[Any] = ()
    ) -> list[tuple]:
        """One statement's rows from one shard; a missing, damaged or
        locked shard is a :class:`QueryError` naming it."""
        try:
            return self._reader(info).execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise QueryError(
                f"query failed on shard {info.relpath}: {exc}"
            ) from exc

    def query_table(
        self,
        table: str,
        sql: str,
        params: Sequence[Any] = (),
        *,
        window: tuple[int | None, int | None] = (None, None),
        merge: Callable[[list[list[tuple]]], list[tuple]] | None = None,
    ) -> list[tuple]:
        self._require_conn()
        if table not in self._registry:  # static, or sqlite's own error
            return super().query_table(table, sql, params)
        parts = [
            self._shard_rows(info, sql, params)
            for info in self._shards_for(table, window)
        ]
        if len(parts) == 1:
            return parts[0]
        if merge is None:
            return [row for part in parts for row in part]
        return merge(parts)

    # ------------------------------------------------------------------
    # the dynamic-table read API

    def tables(self) -> list[str]:
        names = set(super().tables()) - _INTERNAL_TABLES
        names.update(self._registry)
        return sorted(names)

    def dynamic_tables(self) -> list[str]:
        return sorted(self._registry)

    def table_schema(self, table: str) -> list[tuple[str, str]]:
        declared = self._registry.get(table)
        if declared is None:
            return super().table_schema(table)
        overrides = dict(
            self._require_conn().execute(
                "SELECT column_name, sql_type FROM schema_catalog "
                "WHERE table_name = ?",
                (table,),
            )
        )
        return [
            (column, overrides.get(column, sql_type))
            for column, sql_type in declared
        ]

    # ------------------------------------------------------------------
    # dumps

    def iterdump(self) -> Iterator[str]:
        """Alias of :meth:`iterdump_content`.

        A partitioned warehouse has no meaningful *physical* SQL dump
        — the canonical content lines are its dump.
        """
        return self.iterdump_content()

    # ------------------------------------------------------------------
    # shard management: manifest, retention, compaction

    def shard_manifest(self) -> list[ShardInfo]:
        """Every shard, ordered by (host, window)."""
        return sorted(
            self._shards.values(), key=lambda i: (i.host, i.sort_key())
        )

    def _remove_shard(self, info: ShardInfo) -> None:
        for conns in (self._writes, self._readers):
            conn = conns.pop(info.key, None)
            if conn is not None:
                conn.close()
        path = self.root / info.relpath
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        conn = self._require_conn()
        conn.execute(
            "DELETE FROM shard_manifest WHERE host = ? AND window_index = ?",
            info.key,
        )
        conn.execute(
            "DELETE FROM shard_tables WHERE host = ? AND window_index = ?",
            info.key,
        )
        self._commit()
        del self._shards[info.key]

    def drop_shards_before(self, cutoff_us: int) -> int:
        """Retention: delete every shard wholly before ``cutoff_us``.

        Only bounded (time-windowed) shards qualify — the catch-all
        and host-only shards have no upper bound and are never cold.
        Returns the number of shards dropped.
        """
        victims = [
            info
            for info in list(self._shards.values())
            if info.stop_us is not None and info.stop_us <= cutoff_us
        ]
        for info in victims:
            self._remove_shard(info)
        return len(victims)

    def compact_shards_before(self, cutoff_us: int) -> int:
        """Roll every host's cold windows up into one shard apiece.

        Shards wholly before ``cutoff_us`` merge (in window order, so
        row order is preserved) into a single ``roll<first>-<last>.db``
        per host.  Content is unchanged — only the partition count
        drops, keeping the files a full-history read opens few as a
        long run accumulates history.  Returns the number of shards
        merged away.
        """
        by_host: dict[str, list[ShardInfo]] = {}
        for info in self._shards.values():
            if info.stop_us is not None and info.stop_us <= cutoff_us:
                by_host.setdefault(info.host, []).append(info)
        merged = 0
        for host, infos in sorted(by_host.items()):
            if len(infos) < 2:
                continue
            infos.sort(key=ShardInfo.sort_key)
            merged += self._compact_host(host, infos)
        return merged

    def _compact_host(self, host: str, infos: list[ShardInfo]) -> int:
        first, last = infos[0], infos[-1]
        name = f"roll{first.window_index}-{last.window_index}.db"
        relpath = str(Path(_SHARD_DIR) / host / name)
        target_path = self.root / relpath
        target_path.unlink(missing_ok=True)
        target = _connect_shard(target_path, self.threadsafe)
        set_file_pragmas(target)
        tables: set[str] = set()
        for info in infos:
            tables.update(info.tables)
        for table in sorted(tables):
            declared = self._registry[table]
            target.execute(create_table_sql(table, declared))
            column_sql = ", ".join(quote_identifier(c) for c, _ in declared)
            insert_sql = (
                f"INSERT INTO {quote_identifier(table)} ({column_sql}) "
                f"VALUES ({', '.join('?' for _ in declared)})"
            )
            for info in infos:
                if table not in info.tables:
                    continue
                # The source shard may predate later add_column
                # calls; select only the columns it has.
                have = {
                    row[1]
                    for row in self._shard_rows(
                        info, f"PRAGMA table_info({quote_identifier(table)})"
                    )
                }
                selects = ", ".join(
                    quote_identifier(c) if c in have else "NULL"
                    for c, _ in declared
                )
                target.executemany(
                    insert_sql,
                    self._shard_rows(
                        info,
                        f"SELECT {selects} FROM {quote_identifier(table)} "
                        f"ORDER BY rowid",
                    ),
                )
        target.commit()
        target.close()
        for info in infos:
            self._remove_shard(info)
        record = ShardInfo(
            host,
            first.window_index,
            first.start_us,
            last.stop_us,
            relpath,
            tables,
        )
        self._register(record)
        self._commit()
        return len(infos)


def open_warehouse(
    path: Path | str, threadsafe: bool = False
) -> MScopeDB:
    """Open a warehouse by path, monolithic or sharded.

    A directory containing ``manifest.db`` is a sharded warehouse;
    anything else is treated as a monolithic sqlite file.  Every
    read-side consumer (CLI subcommands, the validation harness, the
    serve daemon) goes through this, so both layouts are interchangeable
    downstream.  ``threadsafe`` opens every underlying connection with
    ``check_same_thread=False`` for single-owner, multi-thread use.
    """
    path = Path(path)
    if path.is_dir() and (path / MANIFEST_FILE).exists():
        return ShardedMScopeDB(path, threadsafe=threadsafe)
    return MScopeDB(path, threadsafe=threadsafe)
