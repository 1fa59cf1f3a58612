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
:meth:`~repro.warehouse.db.MScopeDB.bulk_load`), indexes are created
*after* the first bulk insert so the insert never pays index
maintenance, and table existence is cached across files instead of
re-querying the warehouse per import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

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
        #: ``(table, source)`` -> ``(hostname, parser_name, rows loaded
        #: so far)``: the running total ``load_catalog`` records, and
        #: the provenance a flush-time load needs.
        self._streams: dict[tuple[str, str], tuple[str, str, int]] = {}

    def _tables(self) -> set[str]:
        """The warehouse's dynamic tables, listed once then tracked."""
        if self._known_tables is None:
            self._known_tables = set(self.db.dynamic_tables())
        return self._known_tables

    def import_table(
        self,
        table: CsvTable,
        hostname: str,
        parser_name: str,
        span=None,
    ) -> int:
        """Sample, create/extend the target table and load the rows.

        The whole load — DDL, bulk insert, indexes, provenance — is
        one transaction.  Returns the number of rows inserted (what a
        stateful policy withholds arrives with :meth:`flush`).  An
        optional telemetry ``span`` is credited with the inserted row
        count.
        """
        if not table.columns:
            raise DataImportError(f"table {table.name!r} has no columns")
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
        base-rate keeps commit, the rest drop), loads the released
        rows, and upserts the conflation aggregates.  Idempotent, and a
        no-op without a stateful policy.  Returns the retroactively
        committed row count.
        """
        if self.sampling is None:
            return 0
        committed = 0
        for released in self.sampling.flush():
            hostname, parser_name, _ = self._streams[
                (released.name, released.source)
            ]
            committed += self._load(released, hostname, parser_name)
        for row in self.sampling.conflated_rows():
            self.db.record_conflated(*row)
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
        key = (table.name, table.source)
        with self.db.bulk_load():
            known = self._tables()
            created = table.name not in known
            if created:
                self.db.create_table(table.name, table.columns)
                known.add(table.name)
                width = len(table.columns)
            else:
                width = self._reconcile_schema(table)
            inserted = self.db.insert_rows(
                table.name, table.column_names, table.rows
            )
            if created:
                # Index after the bulk insert: building each index in
                # one pass is cheaper than maintaining it row-by-row.
                for column in ("request_id", "timestamp_us"):
                    if column in table.column_names:
                        self.db.create_index(table.name, column)
                names = set(table.column_names)
                if {"upstream_arrival_us", "upstream_departure_us"} <= names:
                    # Event tables also serve the explorer's hot
                    # queries: slowest_requests sorts on the
                    # response-time expression, interaction_stats
                    # groups on interaction — both must stay off full
                    # table scans as the warehouse grows.
                    self.db.create_response_time_index(table.name)
                    if "interaction" in names:
                        self.db.create_covering_index(
                            table.name,
                            (
                                "interaction",
                                "upstream_arrival_us",
                                "upstream_departure_us",
                            ),
                            "interaction_rt",
                        )
            # The catalog row is keyed (table, source) and carries the
            # stream's running total, so a file loaded in deltas (live)
            # converges on the row a one-shot batch load records.
            _, _, already = self._streams.get(key, (hostname, parser_name, 0))
            loaded = already + inserted
            self.db.record_load(table.name, table.source, loaded, width)
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
        """Add/widen columns; returns the table's resulting width."""
        current = dict(self.db.table_schema(table.name))
        width = len(current)
        for column, sql_type in table.columns:
            if column not in current:
                self.db.add_column(table.name, column, sql_type)
                width += 1
            elif _WIDER[sql_type] > _WIDER.get(current[column], 2):
                # sqlite's type affinity tolerates wider values in a
                # narrower column; record the widening in the schema
                # catalog so table_schema() reflects reality.
                self.db.record_column_type(table.name, column, sql_type)
        return width
