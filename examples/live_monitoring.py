"""Online monitoring: catching the VSB while the system is running.

Uses the stepped-run API and the LiveTransformer: the simulation
advances in 500 ms chunks, the warehouse refreshes incrementally from
the still-growing native logs after each chunk, and the diagnosis
engine runs continuously — printing the moment the anomaly becomes
visible in the data, not after the fact.

Run:  python examples/live_monitoring.py
"""

import tempfile
from pathlib import Path

from repro.analysis.diagnosis import Diagnoser
from repro.common.errors import AnalysisError
from repro.common.timebase import ms, seconds
from repro.experiments.scenarios import scenario_tier_configs
from repro.monitors.event.suite import EventMonitorSuite
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.faults import DBLogFlushFault
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.live import LiveTransformer
from repro.warehouse.db import MScopeDB

MB = 1024 * 1024


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_live_"))
    config = SystemConfig(
        workload=WorkloadSpec(users=300, think_time_us=ms(700), ramp_up_us=ms(300)),
        seed=3,
        tiers=scenario_tier_configs(),
        log_dir=workdir / "logs",
    )
    fault = DBLogFlushFault(
        start_at=seconds(2), period=seconds(10), flush_bytes=30 * MB, bursts=1
    )
    system = NTierSystem(config, faults=[fault])
    EventMonitorSuite().attach(system)
    ResourceMonitorSuite(system, interval_us=ms(50)).start()

    db = MScopeDB()
    live = LiveTransformer(db)
    diagnoser = None
    detected_at = None

    system.start_workload()
    chunk = ms(500)
    horizon = seconds(5)
    clock = 0
    while clock < horizon:
        clock = min(clock + chunk, horizon)
        system.advance(clock)
        outcome = live.refresh_directory(workdir / "logs")
        print(
            f"t={clock / 1e6:4.1f}s  +{outcome.new_rows:5d} rows "
            f"({outcome.refreshed_files} files refreshed)"
        )
        if diagnoser is None and "apache_events_web1" in db.tables():
            diagnoser = Diagnoser(
                db, epoch_us=system.wall_clock.epoch_micros(0)
            )
        if diagnoser is None or detected_at is not None:
            continue
        try:
            reports = diagnoser.diagnose()
        except AnalysisError:
            continue
        if reports:
            detected_at = clock
            print(f"\n*** anomaly detected at t={clock / 1e6:.1f}s ***")
            print(reports[0].to_text())
            print()

    result = system.finish()
    print(
        f"\nrun complete: {len(result.traces)} requests; the fault fired at "
        f"t=2.0s and the live pipeline flagged it at "
        f"t={detected_at / 1e6 if detected_at else float('nan'):.1f}s"
    )


if __name__ == "__main__":
    main()
