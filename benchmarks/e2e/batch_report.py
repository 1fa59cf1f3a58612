"""``batch_report``: log tree -> warehouse -> diagnosis, as the user runs it.

Closed loop, one client.  One op is ``mscope transform --jobs 1`` into
a fresh monolith plus ``mscope diagnose`` on it, with the CLI's
defaults (telemetry on) — the paper's Figure-3 pipeline.  The item is a
warehouse row loaded.  ``serve`` and ``LiveTransformer`` do not run at
all, so a change to live ingest must show nothing here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.analysis.cache import SeriesCache
from repro.analysis.causal import discover_tier_tables
from repro.analysis.diagnosis import Diagnoser
from repro.analysis.metrics import discover_candidates
from repro.analysis.response_time import completions_from_warehouse
from repro.cli import main as mscope
from repro.telemetry.spans import TelemetryCollector
from repro.transformer.declaration import default_declaration
from repro.transformer.errorpolicy import FAIL_FAST_POLICY, ErrorSink
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.parsers import create_parser
from repro.transformer.pipeline import MScopeDataTransformer
from repro.transformer.xml_to_csv import XmlToCsvConverter
from repro.transformer.xmlmodel import XmlDocument
from repro.warehouse.db import MScopeDB

import harness
from harness import OpLog, Outcome, Sizes, Tracer

FRONT_TABLE = "apache_events_web1"
_ROWS = re.compile(r"^\d+ logs, (\d+) rows -> ", re.MULTILINE)
_WINDOW = re.compile(r"^Anomaly window \[([\d.]+)s, ([\d.]+)s\]", re.MULTILINE)
_RANK1 = re.compile(r"^    1\. (.+?) \(peak", re.MULTILINE)


def simulate_tree(seed: int, simulated_s: float, out: Path) -> Path:
    """``mscope run`` scenario A into ``out``; returns the log root."""
    code, _ = harness.quiet(mscope, [
        "run", "--scenario", "a", "--seed", str(seed),
        "--duration", repr(simulated_s), "--out", str(out),
    ])
    if code != 0:
        raise RuntimeError(f"mscope run exited {code}")
    return out / "logs"


def rows_loaded(transform_stdout: str) -> int:
    """The row total ``mscope transform`` prints (-1 if it printed none)."""
    found = _ROWS.search(transform_stdout)
    return int(found[1]) if found else -1


def remove_db(db_path: Path) -> None:
    for leftover in db_path.parent.glob(db_path.name + "*"):
        leftover.unlink()


def report_finds_flush(text: str) -> bool:
    """Rank-1 cause is db1's disk, in a window touching the flush."""
    for window, rank1 in zip(_WINDOW.finditer(text), _RANK1.finditer(text)):
        if harness.overlaps_flush(float(window[1]), float(window[2])):
            return rank1[1].startswith("db1: disk utilization")
    return False


def parser_label(parser_name: str) -> str:
    """``collectl_csv`` and ``collectl_text`` report as ``collectl``."""
    return "collectl" if parser_name.startswith("collectl") else parser_name


def parse_and_convert(tracer: Tracer, declaration, converter, host: str, path: Path):
    """resolve -> parse -> convert for one file, a span around each."""
    with tracer.span("transformer.resolve"):
        binding = declaration.resolve(path)
    with tracer.span(f"transformer.parse.{parser_label(binding.parser_name)}"):
        document = create_parser(binding).parse_file(
            path, sink=ErrorSink(FAIL_FAST_POLICY, str(path), binding.parser_name)
        )
    with tracer.span("transformer.convert"):
        table = converter.convert(
            document, f"{binding.monitor}_{host}", extra_columns={"hostname": host}
        )
    return binding, document, table


def layer_pass(
    logs: Path, db_path: Path, epoch_us: int, tracer: Tracer, index: int
) -> dict[str, int]:
    """One pass over the tree through the public stage functions.

    The same work as one op, split at the layer boundaries the CLI
    hides.  Returns line counts per parser label plus ``rows``.
    """
    declaration = default_declaration()
    converter = XmlToCsvConverter()
    counts: dict[str, int] = {"rows": 0}
    with tracer.span("pass", op=index), MScopeDB(db_path) as db:
        importer = MScopeDataImporter(db)
        for host, path in harness.log_files(logs):
            binding, _document, table = parse_and_convert(
                tracer, declaration, converter, host, path
            )
            with tracer.span("transformer.import"), db.bulk_load():
                counts["rows"] += importer.import_table(
                    table, host, binding.parser_name
                )
            label = parser_label(binding.parser_name)
            counts[label] = counts.get(label, 0) + path.read_bytes().count(b"\n")
        with tracer.span("analysis.completions"):
            completions_from_warehouse(db, FRONT_TABLE, epoch_us)
        with tracer.span("analysis.load"):
            cache = SeriesCache(db, epoch_us=epoch_us)
            for tables in discover_tier_tables(db).values():
                for table_name in tables:
                    cache.tier_spans(table_name)
            for candidate in discover_candidates(db):
                cache.metric(candidate.table, candidate.columns)
        with tracer.span("analysis.diagnose"):
            reports = Diagnoser(db, epoch_us=epoch_us).diagnose()
        with tracer.span("analysis.report_text"):
            for report in reports:
                report.to_text()
    return counts


def stage_pass(logs: Path, stage_dir: Path, tracer: Tracer, index: int) -> None:
    """The ``--workdir`` stage boundary: XML and CSV through disk.

    Off the default path, so a pass of its own: reported, but no part
    of the op and of no end-to-end metric.
    """
    declaration = default_declaration()
    converter = XmlToCsvConverter()
    untraced = Tracer()
    with tracer.span("stage.pass", op=index):
        for host, path in harness.log_files(logs):
            _binding, document, table = parse_and_convert(
                untraced, declaration, converter, host, path
            )
            xml_path = stage_dir / host / f"{path.stem}.xml"
            with tracer.span("stage.xml_write"):
                document.write(xml_path)
            with tracer.span("stage.xml_read"):
                XmlDocument.read(xml_path)
            with tracer.span("stage.csv_write"):
                converter.write_csv(table, stage_dir / host / f"{path.stem}.csv")


def telemetry_ratio(logs: Path, work: Path) -> float:
    """One transform with the CLI-default collector over one with none."""
    elapsed = {}
    for enabled in (True, False):
        db_path = work / "telemetry.db"
        with MScopeDB(db_path) as db:
            transformer = MScopeDataTransformer(
                db, jobs=1, telemetry=TelemetryCollector() if enabled else None
            )
            elapsed[enabled], _ = harness.timed(
                lambda: transformer.transform_directory(logs)
            )
        remove_db(db_path)
    return elapsed[True] / elapsed[False]


def layer_metrics(
    tracer: Tracer, counts: dict[str, int], op_p50_s: float
) -> dict[str, float]:
    """Median-over-passes self time of every layer span."""
    per_pass = {
        name: harness.median(list(by_op.values()))
        for name, by_op in harness.self_by_op(
            tracer.spans, ("transformer.", "analysis.", "stage.")
        ).items()
    }
    parse = {
        name.rsplit(".", 1)[1]: value
        for name, value in per_pass.items()
        if name.startswith("transformer.parse.")
    }
    layers = {
        "transformer.resolve_s": per_pass["transformer.resolve"],
        "transformer.parse_s": sum(parse.values()),
        "transformer.lines": sum(counts[label] for label in parse),
        "transformer.convert_s": per_pass["transformer.convert"],
        "transformer.rows": counts["rows"],
        "transformer.import_s": per_pass["transformer.import"],
        "transformer.xml_write_s": per_pass["stage.xml_write"],
        "transformer.xml_read_s": per_pass["stage.xml_read"],
        "transformer.csv_write_s": per_pass["stage.csv_write"],
        "analysis.completions_s": per_pass["analysis.completions"],
        "analysis.load_s": per_pass["analysis.load"],
        "analysis.diagnose_s": per_pass["analysis.diagnose"],
        "analysis.report_text_s": per_pass["analysis.report_text"],
    }
    for label, value in parse.items():
        layers[f"transformer.parse.{label}_us_per_line"] = (
            value * 1e6 / counts[label]
        )
    # What the op pays: completions and load are inside diagnose().
    on_path = (
        layers["transformer.resolve_s"] + layers["transformer.parse_s"]
        + layers["transformer.convert_s"] + layers["transformer.import_s"]
        + layers["analysis.diagnose_s"] + layers["analysis.report_text_s"]
    )
    layers["cli.residual_s"] = op_p50_s - on_path
    layers["trace_coverage_pct"] = 100.0 * on_path / op_p50_s
    return layers


def run(
    seed: int, sizes: Sizes, work: Path, tracer: Tracer, traced: bool,
    inject_failure: bool,
) -> Outcome:
    n_ops = sizes.batch_ops // 2 if traced else sizes.batch_ops

    setup_rounds: list[float] = []
    tree_sizes = set()
    for round_index in range(sizes.setup_rounds):
        out = work / f"tree-{round_index}"
        elapsed, logs = harness.timed(
            lambda: simulate_tree(seed, sizes.batch_tree_s, out)
        )
        setup_rounds.append(elapsed)
        tree_sizes.add(harness.tree_bytes(logs))

    db_path = work / "mscope.db"
    ops = OpLog(tracer, traced, inject_failure)
    first_rows: list[int] = []

    def transform_and_diagnose(index: int) -> bool:
        with tracer.span("op", op=index):
            with tracer.span("cli.transform"):
                t_code, t_out = harness.quiet(mscope, [
                    "transform", "--logs", str(logs), "--db", str(db_path),
                    "--jobs", "1",
                ])
            with tracer.span("cli.diagnose"):
                d_code, d_out = harness.quiet(
                    mscope, ["diagnose", "--db", str(db_path)]
                )
        rows = rows_loaded(t_out)
        first_rows.append(rows)
        return (
            t_code == 0 and d_code == 0 and rows == first_rows[0] and rows > 0
            and report_finds_flush(d_out)
        )

    # Traced runs interleave the layer probes with the ops, so that a
    # slow minute of the machine lands on both sides of op - layers.
    probe_every = max(1, n_ops // sizes.probe_passes) if traced else 0
    epoch_us = int(json.loads((logs.parent / "run_meta.json").read_text())["epoch_us"])
    counts: dict[str, int] = {}
    telemetry_ratios: list[float] = []
    layers: dict[str, float] = {}

    cpu_s = 0.0
    db_bytes = 0
    for index in range(n_ops):
        cpu_before = harness.cpu_seconds()
        ops.run(transform_and_diagnose)
        cpu_s += harness.cpu_seconds() - cpu_before
        # Deleting the warehouse is not part of the op.
        db_bytes = harness.sqlite_bytes(db_path)
        remove_db(db_path)
        if traced and (index + 1) % probe_every == 0:
            tracer.enabled = True
            counts = layer_pass(logs, db_path, epoch_us, tracer, index)
            layers["warehouse.mono.db_bytes"] = harness.sqlite_bytes(db_path)
            remove_db(db_path)
            stage_pass(logs, work / "stage", tracer, index)
            tracer.enabled = False
            telemetry_ratios.append(telemetry_ratio(logs, work))

    rows = first_rows[0]
    outcome = Outcome(
        setup_rounds_s=setup_rounds,
        ops=ops,
        items=rows * n_ops,
        busy_s=sum(ops.latencies_s),
        cpu_s=cpu_s,
        disk_bytes_per_item=db_bytes / rows,
        checks={"setup_trees_identical": len(tree_sizes) == 1},
        info={"rows_per_op": rows, "db_bytes": db_bytes},
    )
    if traced:
        layers.update(layer_metrics(
            tracer, counts, harness.median(ops.latencies_where(traced=False))
        ))
        layers["telemetry.overhead_pct"] = (
            harness.median(telemetry_ratios) - 1.0
        ) * 100.0
        outcome.layers = layers
    return outcome
