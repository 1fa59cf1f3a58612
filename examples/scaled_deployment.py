"""Scale-out deployment: localizing a VSB to one replica.

The paper criticizes SysViz for "lacking scale because of its rigid
configuration requirements"; milliScope's software monitors deploy
per-node and scale with the system.  This example runs a 1-2-1-2
deployment (two Tomcats, two MySQL backends behind C-JDBC), injects a
log-flush fault on *one* of the two database replicas, and shows the
warehouse pinpointing db2 while db1 stays healthy.

Run:  python examples/scaled_deployment.py
"""

import tempfile
from pathlib import Path

from repro.analysis.diagnosis import Diagnoser
from repro.analysis.render import sparkline
from repro.analysis.metrics import metric_series
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.faults import DBLogFlushFault
from repro.ntier.system import NTierSystem, SystemConfig, TierConfig
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

MB = 1024 * 1024


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_scaled_"))
    config = SystemConfig(
        workload=WorkloadSpec(users=400, think_time_us=ms(700), ramp_up_us=ms(300)),
        seed=13,
        log_dir=workdir / "logs",
        tiers={
            "apache": TierConfig(workers=80),
            "tomcat": TierConfig(workers=24, replicas=2),
            "cjdbc": TierConfig(workers=32),
            "mysql": TierConfig(workers=16, replicas=2),
        },
    )
    # The fault strikes only the SECOND database replica.
    fault = DBLogFlushFault(
        start_at=seconds(2), period=seconds(10), flush_bytes=30 * MB,
        bursts=1, tier="mysql#2",
    )
    system = NTierSystem(config, faults=[fault])
    EventMonitorSuite().attach(system)
    ResourceMonitorSuite(system, interval_us=ms(50)).start()
    result = system.run(seconds(5))
    print(
        f"1-2-1-2 deployment, {len(result.traces)} requests, "
        f"{result.throughput():.0f} req/s\n"
    )

    db = MScopeDB()
    MScopeDataTransformer(db).transform_directory(workdir / "logs")
    epoch = system.wall_clock.epoch_micros(0)

    print("disk utilization per database replica (collectl, 50 ms):")
    for node in ("db1", "db2"):
        series = metric_series(db, f"collectl_{node}", ("dsk_pctutil",), epoch)
        print(f"  {node}: {sparkline(series, width=60)}  peak={series.max():.0f}%")
    print()

    tier_tables = {
        "apache": "apache_events_web1",
        "tomcat": "tomcat_events_app1",
        "cjdbc": "cjdbc_events_mid1",
        "mysql": "mysql_events_db1",
    }
    for report in Diagnoser(db, tier_tables=tier_tables, epoch_us=epoch).diagnose():
        print(report.to_text())
        print()

    print(
        "Conclusion: both replicas serve the same query stream, but only "
        "db2's disk saturates — the warehouse localizes the VSB to the "
        "single faulty backend."
    )


if __name__ == "__main__":
    main()
