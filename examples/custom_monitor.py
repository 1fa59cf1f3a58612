"""Extending milliScope: a custom resource monitor, end to end.

The framework is built to absorb new monitors (§III): write the
sampler, give its log format a parser, declare the binding — and the
transformer and warehouse handle the rest, schema included.

This example adds a *thread-pool monitor* ("poolstat") that samples a
tier's worker-pool occupancy and wait-queue length, logs it in its own
little format, and rides the standard pipeline into mScopeDB next to
the built-in monitors.

Run:  python examples/custom_monitor.py
"""

import tempfile
from pathlib import Path

from repro.common.timebase import ms
from repro.monitors.resource.base import ResourceMonitor
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.declaration import ParserBinding, default_declaration
from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.pipeline import MScopeDataTransformer
from repro.transformer.timestamps import wall_to_epoch_us
from repro.transformer.xmlmodel import LogRecord
from repro.warehouse.db import MScopeDB


# ----------------------------------------------------------------------
# 1. The monitor: sample a tier's worker pool.


class ThreadPoolMonitor(ResourceMonitor):
    """Samples worker-pool busy count and wait-queue length."""

    monitor_name = "poolstat"
    log_stream = "poolstat"

    def __init__(self, server, wall_clock, interval_us=ms(50)):
        super().__init__(server.node, wall_clock, interval_us)
        self.server = server

    def preamble(self):
        return [f"# poolstat tier={self.server.tier} capacity={self.server.workers.capacity}"]

    def collect(self, start, stop):
        workers = self.server.workers
        return {
            "busy": workers.busy_series.mean(start, stop),
            "queued": workers.queue_series.mean(start, stop),
        }

    def render(self, sample):
        date = self.wall_clock.date(sample.timestamp)
        time = self.wall_clock.hms_ms(sample.timestamp)
        return [
            f"{date} {time} busy={sample.metrics['busy']:.2f} "
            f"queued={sample.metrics['queued']:.2f}"
        ]


# ----------------------------------------------------------------------
# 2. The parser: poolstat's format -> tagged records.


@register_parser
class PoolstatParser(MScopeParser):
    name = "poolstat"

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        for line in lines:
            if not line.strip() or line.startswith("#"):
                continue
            date, time, busy, queued = line.split()
            record = LogRecord()
            record.set("timestamp_us", str(wall_to_epoch_us(date, time)))
            record.set("busy", busy.split("=", 1)[1])
            record.set("queued", queued.split("=", 1)[1])
            document.append(record)
        return document


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_custom_"))

    # Build a small system and attach the custom monitor to Tomcat.
    config = SystemConfig(
        workload=WorkloadSpec(users=200, think_time_us=ms(700), ramp_up_us=ms(200)),
        seed=11,
        log_dir=workdir / "logs",
    )
    system = NTierSystem(config)
    monitor = ThreadPoolMonitor(system.servers["tomcat"], system.wall_clock)
    monitor.start()
    system.add_finalizer(monitor.finalize)
    system.run(ms(3_000))

    # 3. The declaration: tell the transformer who parses poolstat logs.
    declaration = default_declaration()
    declaration.register(
        ParserBinding(pattern="poolstat.log", parser_name="poolstat", monitor="poolstat")
    )

    db = MScopeDB()
    outcomes = MScopeDataTransformer(db, declaration).transform_directory(
        workdir / "logs"
    )
    for outcome in outcomes:
        print(
            f"{outcome.source.name:22s} -> {outcome.table_name:22s} "
            f"({outcome.rows_loaded} rows via {outcome.parser_name})"
        )

    print("\npoolstat_app1 schema:", db.table_schema("poolstat_app1"))
    busiest = db.query(
        "SELECT timestamp_us, busy, queued FROM poolstat_app1 "
        "ORDER BY busy DESC LIMIT 3"
    )
    print("busiest samples:", busiest)


if __name__ == "__main__":
    main()
