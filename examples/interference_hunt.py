"""Hunting the paper's other cited VSB causes: GC, VM steal, DVFS.

Section II lists more root causes of VLRT requests than the two
illustrated scenarios: Java garbage collection, virtual-machine
consolidation, and CPU DVFS.  This example injects all three on
different tiers at different times, then shows milliScope separating
them — the VM-steal episode shows up as %steal in SAR, the GC pause
as CPU saturation, and the per-tier latency breakdown localizes each.

Run:  python examples/interference_hunt.py
"""

import tempfile
from pathlib import Path

from repro.analysis import Diagnoser
from repro.analysis.breakdown import tier_latency_series
from repro.common.timebase import ms, seconds
from repro.monitors import EventMonitorSuite, ResourceMonitorSuite
from repro.ntier import (
    DvfsSlowdownFault,
    GarbageCollectionFault,
    NTierSystem,
    SystemConfig,
    VmConsolidationFault,
)
from repro.experiments.scenarios import scenario_tier_configs
from repro.rubbos import WorkloadSpec
from repro.transformer import MScopeDataTransformer
from repro.warehouse import MScopeDB


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_hunt_"))

    faults = [
        GarbageCollectionFault(
            "tomcat", start_at=seconds(1), period=seconds(30),
            pause=ms(300), collections=1,
        ),
        VmConsolidationFault(
            "mysql", start_at=seconds(3), period=seconds(30),
            burst=ms(350), episodes=1,
        ),
        DvfsSlowdownFault(
            "apache", start_at=seconds(5), period=seconds(30),
            slow_duration=ms(400), speed_factor=0.15, episodes=1,
        ),
    ]
    config = SystemConfig(
        workload=WorkloadSpec(users=300, think_time_us=ms(700), ramp_up_us=ms(300)),
        seed=9,
        tiers=scenario_tier_configs(),
        log_dir=workdir / "logs",
    )
    system = NTierSystem(config, faults=faults)
    EventMonitorSuite().attach(system)
    ResourceMonitorSuite(system, interval_us=ms(50)).start()
    result = system.run(seconds(7))
    print(
        f"{len(result.traces)} requests; injected GC@1s (tomcat), "
        f"VM-steal@3s (mysql), DVFS@5s (apache)\n"
    )

    db = MScopeDB()
    MScopeDataTransformer(db).transform_directory(workdir / "logs")
    epoch = system.wall_clock.epoch_micros(0)
    for report in Diagnoser(db, epoch_us=epoch).diagnose():
        print(report.to_text())
        print()

    print("per-tier latency contribution (mean ms/request, 500 ms windows):")
    series = tier_latency_series(result.traces, ms(500), 0, seconds(7))
    tiers = ["apache", "tomcat", "cjdbc", "mysql", "network"]
    header = "  t(s)  " + "".join(f"{t:>9s}" for t in tiers)
    print(header)
    for i, t in enumerate(series["apache"].times):
        row = "".join(f"{series[tier].values[i]:9.1f}" for tier in tiers)
        print(f"  {t / 1e6:4.1f}  {row}")


if __name__ == "__main__":
    main()
