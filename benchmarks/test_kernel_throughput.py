"""Kernel and simulator throughput benchmarks.

Not paper results — these measure the substrate itself: raw event
throughput of the scalar engine and end-to-end simulated requests per
wall-second of the full four-tier system on both kernels.  They guard
against performance regressions that would make the figure sweeps
impractically slow.

The full-system check pins the *exact* trace count at its seed: the
simulation is deterministic, so any drift is a behavior change (an
RNG stream reordered, a tie broken differently), never noise.  A
floor like ``completed > 300`` would keep passing through exactly the
bugs determinism is supposed to catch.

Measured numbers land in the shared bench-record artifact
(``MSCOPE_BENCH_JSON``, schema ``mscope-bench-record/v1``).
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from record import record

from repro.common.timebase import ms, seconds
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec
from repro.sim.engine import Engine

#: Exact end-to-end trace count at seed 3, 150 users, 2 s — pinned
#: from a reference run; both kernels must reproduce it.
PINNED_TRACES = 390

_PING_ROUNDS = 50_000
_PING_EVENTS = 2 * _PING_ROUNDS


def _pingpong_engine():
    engine = Engine()

    def ticker():
        for _ in range(_PING_ROUNDS):
            yield engine.timeout(10)

    engine.process(ticker())
    return engine


def _best_rate(run, events, repeats=3):
    """Best observed events/sec over ``repeats`` fresh runs."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = max(best, events / elapsed)
    return best


def _scalar_rate(repeats=3):
    return _best_rate(
        lambda: _pingpong_engine().run(), _PING_EVENTS, repeats
    )


def test_kernel_event_throughput(benchmark):
    """Scalar engine: a ping-pong of timeouts (two events per round)."""

    def run_kernel():
        engine = _pingpong_engine()
        engine.run()
        return engine.now

    final = benchmark(run_kernel)
    assert final == _PING_ROUNDS * 10
    record("scalar_pingpong", events_per_sec=round(_scalar_rate()))


def test_run_loop_not_slower_than_step_loop():
    """The inlined ``run()`` pop loop must hold its lead over step().

    ``Engine.run`` bypasses ``step()``'s method call and double head
    indexing per event; this is the micro-optimization the __slots__ /
    hoisted-allocation work bought.  Equal-within-noise is acceptable,
    slower is a regression.
    """

    def step_loop():
        engine = _pingpong_engine()
        while engine.peek() is not None:
            engine.step()

    # Interleave the measurements: frequency scaling and cache warm-up
    # drift over a bench run, and alternating keeps that drift from
    # landing entirely on one side of the ratio.
    run_rate = step_rate = 0.0
    for _ in range(6):
        run_rate = max(run_rate, _scalar_rate(repeats=1))
        step_rate = max(step_rate, _best_rate(step_loop, _PING_EVENTS, 1))
    ratio = run_rate / step_rate
    record(
        "run_vs_step",
        run_events_per_sec=round(run_rate),
        step_events_per_sec=round(step_rate),
        ratio=round(ratio, 3),
    )
    assert ratio >= 0.9, (
        f"run() fast path regressed below step() rate: {ratio:.2f}x"
    )


def _full_system(kernel: str):
    config = SystemConfig(
        workload=WorkloadSpec(
            users=150, think_time_us=ms(700), ramp_up_us=ms(200)
        ),
        seed=3,
        kernel=kernel,
    )
    return NTierSystem(config).run(seconds(2))


def test_full_system_simulation_rate(benchmark):
    """Whole testbed: simulated requests per benchmark round."""
    completed = benchmark.pedantic(
        lambda: len(_full_system("scalar").traces), rounds=3, iterations=1
    )
    assert completed == PINNED_TRACES
    record("full_system_scalar", traces=completed, seed=3, users=150)


def test_full_system_kernels_agree(benchmark):
    """The vector kernel reproduces the pinned trace count exactly."""
    completed = benchmark.pedantic(
        lambda: len(_full_system("vector").traces), rounds=3, iterations=1
    )
    assert completed == PINNED_TRACES
    record("full_system_vector", traces=completed, seed=3, users=150)



#: Simulated seconds of scenario A the memory record runs.
_MEMORY_SECONDS = 10

#: Ceiling on live bytes per simulated second of scenario A (MiB):
#: 1.32 measured when only read histories are kept (1.82 when the CPU
#: also kept an occupancy series and the dirty level, log totals and
#: server counts kept every change; 2.72 with list-backed histories),
#: CPython 3.11, plus headroom for interpreter differences.
_MEMORY_BUDGET_MIB_PER_S = 1.5

#: Runs scenario A in a fresh interpreter and prints what the
#: simulator's histories hold at the end, and the process's own peak
#: RSS (``VmHWM``; see ``_COLD_RUN`` below for why not ``ru_maxrss``).
_MEMORY_PROBE = """
import gc, json, sys, tempfile, tracemalloc
from pathlib import Path

from repro.common.timebase import seconds
from repro.experiments.scenarios import scenario_a
from repro.ntier.hardware import CumulativeCounter
from repro.sim.tracking import StepSeries

traced = sys.argv[2] == "traced"
if traced:
    tracemalloc.start()
with tempfile.TemporaryDirectory() as logs:
    run = scenario_a(seed=3, duration=seconds(int(sys.argv[1])), log_dir=Path(logs))
    held = tracemalloc.get_traced_memory()[0] if traced else None
    histories = [
        o for o in gc.get_objects()
        if isinstance(o, (StepSeries, CumulativeCounter))
    ]
    with open("/proc/self/status") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    print(json.dumps({
        "histories": len(histories),
        "entries": sum(len(o._times) for o in histories),
        "traced_bytes": held,
        "maxrss_mb": int(peak.split()[1]) / 1024,
    }))
"""


def _memory_probe(mode: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, str(_MEMORY_SECONDS), mode],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_simulator_memory_per_simulated_second():
    """Scenario A's live memory grows with simulated time, because the
    histories something reads keep every change since t = 0: CPU time
    per category, disk occupancy, queue and counters, worker occupancy
    and server concurrency.  Packed, a change costs 8 B per stored time
    or sum; this record tracks bytes held and peak RSS per simulated
    second.
    """
    plain = _memory_probe("plain")
    traced = _memory_probe("traced")
    assert plain["entries"] == traced["entries"]  # deterministic run
    traced_per_s = traced["traced_bytes"] / _MEMORY_SECONDS
    record(
        "simulator_memory",
        scenario="a",
        seed=3,
        simulated_s=_MEMORY_SECONDS,
        histories=plain["histories"],
        history_entries=plain["entries"],
        traced_mib_per_sim_s=round(traced_per_s / 2**20, 3),
        maxrss_mb=round(plain["maxrss_mb"], 1),
    )
    print(
        f"scenario a, {_MEMORY_SECONDS} s: {plain['entries']} history "
        f"entries in {plain['histories']} histories, "
        f"{traced_per_s / 2**20:.2f} MiB traced per simulated s, "
        f"maxrss {plain['maxrss_mb']:.1f} MB"
    )
    assert traced_per_s / 2**20 <= _MEMORY_BUDGET_MIB_PER_S


#: Ceiling on ``mscope run --scenario a --duration 0.2``'s peak RSS
#: (MB): 19.8 measured when a run loads only the simulator, 39.8 when
#: it also loaded numpy and the analysis stack (CPython 3.11, x86-64),
#: plus headroom for interpreter differences.
_COLD_START_MAXRSS_MB = 28.0

#: Fresh interpreters the cold-start record times.
_COLD_START_RUNS = 5

#: ``mscope run`` in a fresh interpreter, printing its peak RSS (kB).
#: The peak is the process's own ``VmHWM``: a spawned child's
#: ``ru_maxrss`` starts at the high-water mark of the process that
#: spawned it, which here is the test session.
_COLD_RUN = """
import sys

from repro.cli import main

code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")), end="")
raise SystemExit(code)
"""


def _cold_run(out: Path) -> tuple[float, float, float]:
    """Wall seconds, CPU seconds and peak RSS (MB) of one
    ``mscope run --scenario a --duration 0.2`` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, "run", "--scenario", "a",
         "--duration", "0.2", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    (peak,) = (
        line for line in result.stdout.splitlines() if line.startswith("VmHWM:")
    )
    return wall, cpu, int(peak.split()[1]) / 1024


def test_mscope_run_cold_start(tmp_path):
    """``mscope run`` from a cold interpreter pays for the simulator
    and the monitors only: the transformer, the warehouse layouts, the
    analysis stack and numpy run later, on the logs."""
    walls, cpus, peaks = zip(*(
        _cold_run(tmp_path / f"run-{index}")
        for index in range(_COLD_START_RUNS)
    ))
    wall, cpu, peak = median(walls), median(cpus), max(peaks)
    record(
        "mscope_run_cold_start",
        scenario="a",
        simulated_s=0.2,
        runs=_COLD_START_RUNS,
        wall_s=round(wall, 3),
        cpu_s=round(cpu, 3),
        maxrss_mb=round(peak, 1),
    )
    print(
        f"mscope run cold start (median of {_COLD_START_RUNS}): wall "
        f"{wall:.3f} s, cpu {cpu:.3f} s, maxrss {peak:.1f} MB"
    )
    assert peak <= _COLD_START_MAXRSS_MB
