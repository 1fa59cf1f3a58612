"""Quickstart: instrument a 4-tier RUBBoS system and catch a VSB.

Builds the simulated deployment, attaches the milliScope monitors,
injects a database log-flush bottleneck, runs the full log->warehouse
pipeline, and lets the diagnosis engine find the root cause.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro.analysis.diagnosis import Diagnoser
from repro.experiments.figures_anomaly import figure_02
from repro.experiments.scenarios import load_warehouse, scenario_a


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_quickstart_"))
    print(f"logs and artifacts under {workdir}\n")

    # 1. Run the instrumented system with a database-I/O fault at t=2s.
    run = scenario_a(log_dir=workdir / "logs")
    print(
        f"simulated {run.duration / 1e6:.0f}s of RUBBoS traffic: "
        f"{len(run.result.traces)} requests, "
        f"{run.result.throughput():.0f} req/s, "
        f"mean response {run.result.mean_response_time_ms():.1f} ms\n"
    )

    # 2. The fine-grained view: point-in-time response time (Figure 2).
    print(figure_02(run).to_text())
    print()

    # 3. Native logs -> mScopeDataTransformer -> mScopeDB.
    db = load_warehouse(run, workdir=workdir / "artifacts")
    print(f"warehouse tables: {', '.join(db.dynamic_tables())}\n")

    # 4. Diagnose the very short bottleneck.
    for report in Diagnoser(db, epoch_us=run.epoch_us).diagnose():
        print(report.to_text())
        print()


if __name__ == "__main__":
    main()
