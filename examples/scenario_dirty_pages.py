"""Scenario B — memory dirty pages as the very short bottleneck (§V-B).

Two similar-looking response-time peaks inside five seconds turn out
to have different culprits: the first saturates only Apache's CPU, the
second both Apache's and Tomcat's — and in each case the saturation
coincides with an abrupt drop of the node's dirty-page count: kernel
dirty-page recycling stole the CPU (Figure 8).

Run:  python examples/scenario_dirty_pages.py
"""

import tempfile
from pathlib import Path

from repro.analysis.diagnosis import Diagnoser
from repro.experiments.figures_anomaly import figure_08
from repro.experiments.scenarios import load_warehouse, scenario_b


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="milliscope_scenario_b_"))
    run = scenario_b(log_dir=workdir / "logs")

    result = figure_08(run)
    print(result.to_text())
    print()

    first, second = result.peaks
    print("panel (b): queue means per peak")
    for index, window in enumerate((first, second), start=1):
        print(
            f"  peak {index}: apache~{result.queue_mean_in('apache', window):.0f} "
            f"tomcat~{result.queue_mean_in('tomcat', window):.0f}"
        )
    print("panel (c): CPU peaks per node")
    for index, window in enumerate((first, second), start=1):
        print(
            f"  peak {index}: web1={result.cpu_peak_in('web1', window):.0f}% "
            f"app1={result.cpu_peak_in('app1', window):.0f}%"
        )
    print("panel (d): dirty-page drop (KB) per node")
    for index, window in enumerate((first, second), start=1):
        print(
            f"  peak {index}: web1={result.dirty_drop_in('web1', window):.0f} "
            f"app1={result.dirty_drop_in('app1', window):.0f}"
        )
    print()

    print("--- automated diagnosis over mScopeDB ---")
    db = load_warehouse(run)
    for report in Diagnoser(db, epoch_us=run.epoch_us).diagnose():
        print(report.to_text())
        print()

    print(
        "Conclusion: the two peaks look alike but have different root "
        "causes — Apache's dirty-page recycling first, Tomcat's second."
    )


if __name__ == "__main__":
    main()
