"""The milliScope end-to-end benchmark: one command, every metric.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7

runs the four workloads, checks their outputs, and prints every
end-to-end metric by name with its unit.  ``--workload NAME`` runs one,
``--traced`` adds the per-layer run, ``--sets N`` runs N sets (a set is
three repeats of every workload; the reported value is the median of
the three) and ``--out FILE`` keeps the record ``compare.py`` reads.

The builder's driver calls it as ``run.py --workload W --seed N
--seconds S --trace 0|1``; with exactly one run the last stdout line is
the contract's JSON object.

Each run happens in a fresh worker subprocess (``PYTHONHASHSEED=0``,
one thread) so ``peak_rss_mb`` is not inherited from an earlier run;
this process only spawns workers and prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import harness  # noqa: E402  (needs the path set above)

SCHEMA = "mscope-e2e-record/v1"
WORKER_TIMEOUT_S = 170


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=harness.REFERENCE.run_seconds,
                        help="length of the timed phase; anything but the "
                        "reference scales op counts and is not comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the per-layer (traced) run instead of "
                        "the end-to-end one")
    parser.add_argument("--traced", action="store_true",
                        help="run both: end-to-end, then per-layer")
    parser.add_argument("--sets", type=int, default=0,
                        help=f"run N sets of {harness.SET_REPEATS} repeats "
                        "(default: one run per workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trees for the self-tests; not comparable")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the record JSON here")
    parser.add_argument("--inject-failure", action="store_true",
                        help="self-test hook: fail the first op's check")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser


# ----------------------------------------------------------------------
# the worker: one workload, one run


def worker(args: argparse.Namespace) -> int:
    import importlib

    # Importing the workload pulls in numpy/scipy/repro: part of set-up.
    module = importlib.import_module(args.workload)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    import_s = time.time() - spawned_at

    sizes = harness.REFERENCE.scaled(args.seconds, args.smoke)
    tracer = harness.Tracer()
    traced = bool(args.trace)
    with harness.work_dir(args.workload) as work:
        outcome = module.run(
            args.seed, sizes, work, tracer, traced, args.inject_failure
        )
        result = harness.fold(outcome, import_s, traced)
    if traced:
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    result["info"]["comparable"] = sizes == harness.REFERENCE
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the runner


def spawn(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """Run one workload in a fresh subprocess and return its result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.inject_failure:
        command.append("--inject-failure")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} worker exited {done.returncode}; no result")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=args.seed, trace=trace)
    return result


def machine_facts() -> dict:
    import sqlite3

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
    }


def print_run(result: dict) -> None:
    info = result["info"]
    verdict = "ok" if result["correct"] else "FAILED " + ",".join(
        info["failed_checks"] or ["op checks"]
    )
    stamp = "" if info["comparable"] else "  [NOT COMPARABLE: non-reference sizes]"
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"trace={result['trace']}: {verdict}, "
        f"{result['attempted'] - result['failed']}/{result['attempted']} ops, "
        f"tail=p{info['tail_pct']}, {info['items']} items in "
        f"{info['busy_s']:.2f} busy s{stamp}"
    )
    if info.get("saturated"):
        print("   the replay could not hold its schedule: the run was SATURATED "
              f"(up to {info['late_max_ms']:.1f} ms behind)")
    quiet_layers = 0
    for name, metric in result["metrics"].items():
        if result["trace"] and metric["value"] == 0:
            quiet_layers += 1  # a layer this workload does not run
            continue
        print(f"   {name:42s} {metric['value']:14.4f} {metric['unit']}")
    if quiet_layers:
        print(f"   ({quiet_layers} per-layer metrics of layers this workload "
              "does not run are 0)")


def print_set_medians(runs: list[dict]) -> None:
    """Per workload x end-to-end metric, the median over the repeats."""
    print("== medians over repeats")
    for workload in harness.WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if len(mine) < 2:
            continue
        for name, unit in harness.END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in mine]
            print(f"   {workload:16s} {name:22s} "
                  f"{statistics.median(values):14.4f} {unit}  (n={len(values)})")


def cross_repeat_failures(runs: list[dict]) -> list[str]:
    """``sim_closed_loop``: equal line and trace counts across repeats."""
    seen: dict[tuple, tuple] = {}
    failures = []
    for run in runs:
        if run["workload"] != "sim_closed_loop":
            continue
        key = (run["seed"], run["trace"])
        counts = (run["info"]["lines"], run["info"]["traces"])
        if seen.setdefault(key, counts) != counts:
            failures.append(
                f"sim_closed_loop seed {run['seed']}: (lines, traces) "
                f"{counts} != {seen[key]} in an earlier repeat"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.worker:
        return worker(args)
    if not (SRC / "repro").is_dir():
        sys.exit(f"nothing to measure: {SRC / 'repro'} does not exist")

    workloads = [args.workload] if args.workload else list(harness.WORKLOADS)
    sets = max(1, args.sets)
    repeats = harness.SET_REPEATS if args.sets else 1
    plan: list[tuple[str, int, int, int]] = []
    if args.traced or args.trace == 0:
        plan += [
            (workload, 0, set_index, repeat)
            for set_index in range(sets)
            for repeat in range(repeats)
            for workload in workloads
        ]
    if args.traced or args.trace == 1:
        # The per-layer run is once per workload, not once per repeat.
        plan += [(workload, 1, 0, 0) for workload in workloads]
    runs: list[dict] = []
    for workload, trace, set_index, repeat in plan:
        result = spawn(args, workload, trace)
        result.update(set=set_index, repeat=repeat)
        print_run(result)
        runs.append(result)
    if repeats > 1:
        print_set_medians(runs)
    failures = cross_repeat_failures(runs)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if args.out is not None:
        sizes = harness.REFERENCE.scaled(args.seconds, args.smoke)
        record = {
            "schema": SCHEMA,
            "comparable": sizes == harness.REFERENCE,
            "seed": args.seed,
            "machine": machine_facts(),
            "sizes": dataclasses.asdict(sizes),
            "runs": runs,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record -> {args.out}")

    correct = not failures and all(r["correct"] for r in runs)
    if len(runs) == 1:
        # The builder contract's result line.
        print(json.dumps({k: runs[0][k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
