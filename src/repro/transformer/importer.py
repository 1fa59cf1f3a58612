"""The mScope Data Importer.

The pipeline's last stage: create warehouse tables on the fly from the
converter's inferred schemas and load the typed rows.  Re-imports into
an existing table reconcile schemas column-by-column — new columns are
added with NULL backfill, matching the dynamic-warehouse behaviour the
paper describes (tables materialize and grow as logs arrive).

Each file's load runs as one warehouse transaction (via
:meth:`~repro.warehouse.db.MScopeDB.bulk_load`), indexes are created
*after* the first bulk insert so the insert never pays index
maintenance, and table existence is cached across files instead of
re-querying the warehouse per import.
"""

from __future__ import annotations

from repro.common.errors import DataImportError
from repro.transformer.xml_to_csv import CsvTable
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import ShardHostWriter

__all__ = ["MScopeDataImporter"]

#: Anything the importer can load into: a warehouse of either layout,
#: or a transform worker's host-private shard writer (parallel sharded
#: path), which logs the manifest writes for the parent to replay.
WarehouseTarget = MScopeDB | ShardHostWriter

_WIDER = {"INTEGER": 0, "REAL": 1, "TEXT": 2}


class MScopeDataImporter:
    """Loads converted tables into mScopeDB."""

    def __init__(self, db: WarehouseTarget) -> None:
        self.db = db
        self._known_tables: set[str] | None = None

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
        """Create/extend the target table and load the rows.

        The whole load — DDL, bulk insert, indexes, provenance — is
        one transaction.  Returns the number of rows inserted.  An
        optional telemetry ``span`` is credited with the inserted row
        count.
        """
        if not table.columns:
            raise DataImportError(f"table {table.name!r} has no columns")
        with self.db.bulk_load():
            known = self._tables()
            created = table.name not in known
            if created:
                self.db.create_table(table.name, table.columns)
                known.add(table.name)
            else:
                self._reconcile_schema(table)
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
            self.db.record_load(
                table.name, table.source, inserted, len(table.columns)
            )
            self.db.register_monitor(
                monitor=table.monitor,
                hostname=hostname,
                source_path=table.source,
                parser=parser_name,
                table_name=table.name,
            )
        if span is not None:
            span.add(records=inserted)
        return inserted

    def _reconcile_schema(self, table: CsvTable) -> None:
        current = dict(self.db.table_schema(table.name))
        for column, sql_type in table.columns:
            if column not in current:
                self.db.add_column(table.name, column, sql_type)
            elif _WIDER[sql_type] > _WIDER.get(current[column], 2):
                # sqlite's type affinity tolerates wider values in a
                # narrower column; record the widening in the schema
                # catalog so table_schema() reflects reality.
                self.db.record_column_type(table.name, column, sql_type)
