"""The mScope Data Importer — the pipeline's one write stage.

Figure 3 of the paper ends in a single importer loading the dynamic
warehouse, and so does this pipeline: the batch transform (serial or
fanned out, into either warehouse layout), the live transformer and
the serve daemon all hand their converted tables to
:meth:`MScopeDataImporter.import_table` and their damaged lines to
:meth:`MScopeDataImporter.record_errors`.  The
importer applies the log-volume-reduction policy (rows are counted
where they are dropped), creates warehouse tables on the fly from the
converter's inferred schemas, loads the typed rows, and records
``load_catalog`` and ``sampling_ledger`` with the *cumulative* counts
it keeps per ``(table, source)`` — so a file imported once and the
same file imported in N deltas leave the same catalog rows.
:meth:`MScopeDataImporter.flush` lands whatever a stateful policy
still withholds through the same load step.

Re-imports into an existing table reconcile schemas column-by-column —
new columns are added with NULL backfill, matching the
dynamic-warehouse behaviour the paper describes (tables materialize
and grow as logs arrive).

Each load runs as one warehouse transaction (via
:meth:`~repro.warehouse.db.MScopeDB.bulk_load`), and
:meth:`MScopeDataImporter.transaction` makes any number of loads one
transaction — the live transformer lands a whole refresh cycle that
way.  A transaction that fails rolls back whole: the warehouse, and
with it what the importer tracks (stream totals, known tables and
their schemas) and the sampling policy's counts.  Indexes (two per
event table, one per resource table) are created *after* the first
bulk insert so the insert never pays index maintenance, and table
existence and each table's column types are cached across loads, so a
delta that brings no new column or wider type never asks the
warehouse for its schema.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.common.errors import DataImportError
from repro.transformer.errorpolicy import IngestError
from repro.transformer.xml_to_csv import CsvTable
from repro.warehouse.db import MScopeDB

if TYPE_CHECKING:  # sampling.policy imports CsvTable from this package
    from repro.sampling.policy import SamplingPolicy

__all__ = ["MScopeDataImporter"]

_WIDER = {"INTEGER": 0, "REAL": 1, "TEXT": 2}


class MScopeDataImporter:
    """Loads converted tables into mScopeDB.

    ``sampling`` is the log-volume-reduction policy applied to every
    table on its way in; ``None`` loads everything.
    """

    def __init__(
        self, db: MScopeDB, sampling: SamplingPolicy | None = None
    ) -> None:
        self.db = db
        self.sampling = sampling
        self._known_tables: set[str] | None = None
        #: table -> column -> type, as the warehouse has them (widenings
        #: included); an entry is replaced, never edited in place.
        self._schemas: dict[str, dict[str, str]] = {}
        #: ``(table, source)`` -> ``(hostname, parser_name, rows loaded
        #: so far)``: the running total ``load_catalog`` records, and
        #: the provenance a flush-time load needs.
        self._streams: dict[tuple[str, str], tuple[str, str, int]] = {}
        self._depth = 0

    def _tables(self) -> set[str]:
        """The warehouse's dynamic tables, listed once then tracked."""
        if self._known_tables is None:
            self._known_tables = set(self.db.dynamic_tables())
        return self._known_tables

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Make every load and error record inside one transaction.

        It commits when the outermost context exits cleanly (contexts
        nest, as :meth:`~repro.warehouse.db.MScopeDB.bulk_load` does).
        On an exception the warehouse rolls back, and so do the stream
        totals, the known tables and schemas, and the sampling policy's
        counts, to what they were when the outermost context opened.
        """
        if self._depth:
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
            return
        known = self._known_tables
        saved = (
            dict(self._streams),
            None if known is None else set(known),
            dict(self._schemas),
            None if self.sampling is None else self.sampling.checkpoint(),
        )
        self._depth = 1
        try:
            with self.db.bulk_load():
                yield
        except BaseException:
            self._streams, self._known_tables, self._schemas, counts = saved
            if counts is not None:
                self.sampling.restore(counts)  # type: ignore[union-attr]
            raise
        finally:
            self._depth = 0

    def import_table(
        self,
        table: CsvTable,
        hostname: str,
        parser_name: str,
        span=None,
    ) -> int:
        """Sample, create/extend the target table and load the rows.

        The whole load — sampling, DDL, bulk insert, indexes,
        provenance — is one :meth:`transaction`, or joins the one the
        caller holds open: a failed load leaves neither rows nor counts
        behind (the policy counted the rows it saw, so its counts roll
        back too).  Returns the number of rows inserted (what a
        stateful policy withholds arrives with :meth:`flush`).  An
        optional telemetry ``span`` is credited with the inserted row
        count.
        """
        if not table.columns:
            raise DataImportError(f"table {table.name!r} has no columns")
        with self.transaction():
            if self.sampling is not None:
                table = self.sampling.apply(table)
            inserted = self._load(table, hostname, parser_name)
        if span is not None:
            span.add(records=inserted)
        return inserted

    def flush(self) -> int:
        """Load everything a stateful policy still withholds.

        Tail sampling defers each request's records until its fate is
        known; this settles every deferred request (VLRTs and coherent
        base-rate keeps commit, the rest drop) and loads the released
        rows.  Idempotent, and a no-op without a stateful policy.
        Returns the retroactively committed row count.
        """
        if self.sampling is None:
            return 0
        committed = 0
        with self.transaction():
            for released in self.sampling.flush():
                hostname, parser_name, _ = self._streams[
                    (released.name, released.source)
                ]
                committed += self._load(released, hostname, parser_name)
        return committed

    def record_errors(self, errors: Iterable[IngestError]) -> None:
        """Record damaged lines/records/files in ``ingest_errors``.

        Keyed on ``(path, line)``, so a live refresh re-reading the
        same damage converges on the same ledger rows.
        """
        for error in errors:
            self.db.record_ingest_error(
                error.path,
                error.line_number,
                error.parser,
                error.reason,
                error.excerpt,
            )

    def _load(self, table: CsvTable, hostname: str, parser_name: str) -> int:
        """One table's rows and records; runs inside a :meth:`transaction`."""
        key = (table.name, table.source)
        known = self._tables()
        created = table.name not in known
        if created:
            self.db.create_table(table.name, table.columns)
            known.add(table.name)
            self._schemas[table.name] = dict(table.columns)
            width = len(table.columns)
        else:
            width = self._reconcile_schema(table)
        inserted = self.db.insert_rows(
            table.name, table.column_names, table.rows
        )
        if created:
            # Index after the bulk insert: one pass is cheaper than
            # row-by-row upkeep.  Only indexes a read uses, since every
            # live insert pays for each: request_id the path joins,
            # departure the windowed event reads, timestamp_us the
            # metric reads.
            names = set(table.column_names)
            if "request_id" in names:
                self.db.create_index(table.name, "request_id")
            if {"upstream_arrival_us", "upstream_departure_us"} <= names:
                self.db.create_covering_index(
                    table.name,
                    ("upstream_departure_us", "upstream_arrival_us"),
                    "departure",
                )
            elif "timestamp_us" in names:
                self.db.create_index(table.name, "timestamp_us")
        # The catalog row is keyed (table, source) and carries the
        # stream's running total, so a file loaded in deltas (live)
        # converges on the row a one-shot batch load records.
        stream = self._streams.get(key)
        loaded = inserted if stream is None else stream[2] + inserted
        self.db.record_load(table.name, table.source, loaded, width)
        if stream is None:
            # Provenance never changes for a stream: register it on
            # its first successful load, not on every live delta.
            self.db.register_monitor(
                monitor=table.monitor,
                hostname=hostname,
                source_path=table.source,
                parser=parser_name,
                table_name=table.name,
            )
        self._streams[key] = (hostname, parser_name, loaded)
        sampling = self.sampling
        if sampling is not None and key in sampling.counts:
            # No entry means no request_id column: the policy never
            # governed this table, so it stays out of the ledger.
            counts = sampling.counts[key]
            self.db.record_sampling(
                table.name,
                table.source,
                sampling.spec,
                counts.rows_seen,
                counts.rows_kept,
                counts.bytes_seen,
                counts.bytes_kept,
            )
        return inserted

    def _reconcile_schema(self, table: CsvTable) -> int:
        """Add/widen columns; returns the table's resulting width.

        Against the cached schema: only a delta that brings a new
        column or a wider type touches the warehouse's.
        """
        current = self._schemas.get(table.name)
        if current is None:
            current = self._schemas[table.name] = dict(
                self.db.table_schema(table.name)
            )
        changed = None
        for column, sql_type in table.columns:
            known = current.get(column)
            if known is None:
                self.db.add_column(table.name, column, sql_type)
            elif _WIDER[sql_type] > _WIDER.get(known, 2):
                # sqlite's type affinity tolerates wider values in a
                # narrower column; record the widening in the schema
                # catalog so table_schema() reflects reality.
                self.db.record_column_type(table.name, column, sql_type)
            else:
                continue
            if changed is None:
                changed = dict(current)
            changed[column] = sql_type
        if changed is not None:
            self._schemas[table.name] = current = changed
        return len(current)
