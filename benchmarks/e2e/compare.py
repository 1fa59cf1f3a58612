"""Compare two benchmark records, metric by metric.

    python benchmarks/e2e/compare.py A.json B.json   # A = base, B = change
    python benchmarks/e2e/compare.py records/seed.json   # its set 0 vs set 1

Per workload x end-to-end metric: both medians and quartiles, the
ratio B/A with A as its base, and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``better`` / ``worse``  — B's median moved past the bound;
* ``within-bound``        — it did not;
* ``unresolved``          — the run-to-run spread (quartile distance
  over median, on either side) is wider than the bound *and* the two
  sides' runs interleave, so the medians cannot settle it.

Exits nonzero on any ``worse``, or when B failed a larger share of its
ops than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: Path, set_index: int | None = None) -> list[dict]:
    """The end-to-end (untraced) runs of a record, optionally of one set."""
    record = json.loads(path.read_text())
    if not record.get("comparable", True):
        print(f"warning: {path} was recorded at non-reference sizes")
    return [
        run for run in record["runs"]
        if not run["trace"] and set_index in (None, run.get("set", 0))
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: list[float], change: list[float], bound: float, higher_is_better: bool
) -> tuple[str, float]:
    """``(verdict, ratio of medians with base as its base)``."""
    (a1, a2, a3), (b1, b2, b3) = quartiles(base), quartiles(change)
    ratio = b2 / a2
    worsening = (1.0 - ratio) if higher_is_better else (ratio - 1.0)
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    sign = -1.0 if higher_is_better else 1.0
    all_worse = min(sign * v for v in change) > max(sign * v for v in base)
    all_better = max(sign * v for v in change) < min(sign * v for v in base)
    if spread > bound and not (all_worse or all_better):
        return "unresolved", ratio
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "within-bound", ratio


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(base: list[dict], change: list[dict], metrics: list[dict]) -> int:
    """Print the table; returns the process exit code."""
    exit_code = 0
    workloads = sorted({run["workload"] for run in base + change})
    print(f"{'workload':16s} {'metric':20s} {'A q1/median/q3':>34s} "
          f"{'B q1/median/q3':>34s} {'B/A':>7s}  verdict (bound)")
    for workload in workloads:
        mine_a = [r for r in base if r["workload"] == workload]
        mine_b = [r for r in change if r["workload"] == workload]
        if not mine_a or not mine_b:
            print(f"{workload:16s} missing on one side")
            exit_code = 1
            continue
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in mine_a]
            b = [r["metrics"][name]["value"] for r in mine_b]
            result, ratio = verdict(
                a, b, metric["bound"], metric["better"] == "higher"
            )
            if result == "worse":
                exit_code = 1
            fmt = "{:10.3f}/{:10.3f}/{:10.3f}"
            print(
                f"{workload:16s} {name:20s} {fmt.format(*quartiles(a)):>34s} "
                f"{fmt.format(*quartiles(b)):>34s} {ratio:7.3f}  "
                f"{result} ({metric['bound'] * 100:g} %, n={len(a)}/{len(b)})"
            )
        share_a, share_b = failed_share(mine_a), failed_share(mine_b)
        if share_b > share_a:
            print(f"{workload:16s} failed-op share rose: "
                  f"{share_a:.4f} -> {share_b:.4f}")
            exit_code = 1
    return exit_code


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    if len(argv) == 1:
        path = Path(argv[0])
        base, change = load_runs(path, 0), load_runs(path, 1)
        print(f"A = {path} set 0, B = set 1")
    else:
        base, change = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
        print(f"A = {argv[0]} (base), B = {argv[1]}")
    return compare(base, change, metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
