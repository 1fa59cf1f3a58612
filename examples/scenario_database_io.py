"""Scenario A — database I/O as the very short bottleneck (paper §V-A).

Walks the full investigation of Figures 2, 4, 5, 6 and 7: a point-in-
time response-time peak more than twenty times the average, cross-tier
queue pushback, the database disk saturating while every other disk
stays quiet, and the correlation that pins the blame on database I/O.

Run:  python examples/scenario_database_io.py
"""

import tempfile
from pathlib import Path

from repro.analysis import Diagnoser
from repro.experiments import (
    figure_02,
    figure_04,
    figure_05,
    figure_06,
    figure_07,
    load_warehouse,
    scenario_a,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_scenario_a_"))
    run = scenario_a(log_dir=workdir / "logs")

    print("--- the phenomenon ---")
    print(figure_02(run).to_text())
    print()
    print(figure_06(run).to_text())
    print()

    print("--- zooming into resources ---")
    print(figure_04(run).to_text())
    print()
    print(figure_07(run).to_text())
    print()

    print("--- one VLRT request's execution path ---")
    print(figure_05(run).to_text())
    print()

    print("--- automated diagnosis over mScopeDB ---")
    db = load_warehouse(run)
    for report in Diagnoser(db, epoch_us=run.epoch_us).diagnose():
        print(report.to_text())

    print(
        "\nConclusion: the database flushing its log from memory to disk "
        "saturated the DB disk for ~300 ms; commits queued behind the "
        "flush and the queues amplified through every upstream tier."
    )


if __name__ == "__main__":
    main()
