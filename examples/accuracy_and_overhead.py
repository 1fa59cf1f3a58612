"""Evaluation: accuracy vs SysViz and monitoring overhead (§VI).

Reproduces the shape of Figures 9, 10 and 11 at a laptop-friendly
scale (full workload 8000 for accuracy; a 1000–4000 sweep for the
overhead comparison — pass --full for the paper's 1000–8000 sweep).

Run:  python examples/accuracy_and_overhead.py [--full]
"""

import sys

from repro.common.timebase import seconds
from repro.experiments import figure_09, figure_10, figure_11


def main() -> None:
    full = "--full" in sys.argv
    workloads = (1000, 2000, 4000, 8000) if full else (1000, 2000, 4000)
    duration = seconds(6)

    print("--- Figure 9: accuracy against the SysViz wire tracer ---")
    print(figure_09(workload=8000, duration=duration).to_text())
    print()

    print("--- Figure 10: CPU and disk-write overhead ---")
    print(figure_10(workloads=workloads, duration=duration).to_text())
    print()

    print("--- Figure 11: throughput and response time ---")
    print(figure_11(workloads=workloads, duration=duration).to_text())


if __name__ == "__main__":
    main()
