"""Ablation — narrowest-type schema inference vs all-TEXT columns.

The XMLtoCSV converter picks the narrowest SQL type per column (the
best-match principle).  This ablation loads the same scenario logs
with typed columns and with everything as TEXT, comparing warehouse
size on disk and the cost of a typical aggregation query.  Both
warehouses are built from the same public calls (parse → convert →
import); the all-TEXT one retypes each converted table first.
"""

import dataclasses
import time

from conftest import report
from record import record
from repro.transformer.declaration import default_declaration
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.parsers import create_parser
from repro.transformer.xml_to_csv import CsvTable, XmlToCsvConverter
from repro.warehouse.db import MScopeDB


def as_text(table: CsvTable) -> CsvTable:
    """The same table with every column TEXT and every value a string."""
    return dataclasses.replace(
        table,
        columns=[(name, "TEXT") for name, _ in table.columns],
        rows=[
            tuple(None if v is None else str(v) for v in row)
            for row in table.rows
        ],
    )


def load(scenario_run, path, all_text=False):
    db = MScopeDB(path)
    importer = MScopeDataImporter(db)
    converter = XmlToCsvConverter()
    declared = default_declaration().declared_files(scenario_run.log_dir)
    for host, log, binding in declared:
        document = create_parser(binding).parse_file(log)
        table = converter.convert(
            document,
            f"{binding.monitor}_{host}",
            extra_columns={"hostname": host},
        )
        if all_text:
            table = as_text(table)
        importer.import_table(table, host, binding.parser_name)
    return db


def scan_cost(db):
    started = time.perf_counter()
    db.query(
        "SELECT AVG(upstream_departure_us - upstream_arrival_us) "
        "FROM mysql_events_db1"
    )
    return time.perf_counter() - started


def test_ablation_schema_inference(benchmark, scenario_a_run, tmp_path):
    typed_path = tmp_path / "typed.db"
    text_path = tmp_path / "alltext.db"

    typed_db = load(scenario_a_run, typed_path)

    def load_all_text():
        return load(scenario_a_run, text_path, all_text=True)

    text_db = benchmark.pedantic(load_all_text, rounds=1, iterations=1)

    typed_scan = min(scan_cost(typed_db) for _ in range(5))
    text_scan = min(scan_cost(text_db) for _ in range(5))
    # Closing checkpoints the WAL, so the file holds every row.
    typed_db.close()
    text_db.close()
    typed_bytes = typed_path.stat().st_size
    text_bytes = text_path.stat().st_size
    report(
        "Ablation: schema inference",
        f"  typed   : {typed_bytes:9d} bytes on disk, scan {typed_scan * 1e3:.2f} ms\n"
        f"  all-TEXT: {text_bytes:9d} bytes on disk, scan {text_scan * 1e3:.2f} ms",
    )
    record(
        "schema_inference",
        typed_bytes=typed_bytes,
        text_bytes=text_bytes,
        typed_scan_ms=typed_scan * 1e3,
        text_scan_ms=text_scan * 1e3,
    )
    # Typed columns store the epoch-microsecond integers as 8-byte
    # values instead of 16-char strings: the warehouse shrinks.
    assert typed_bytes < text_bytes
