"""``sim_closed_loop``: the simulator + monitors producing native logs.

Closed loop (300 simulated users, 700 ms think): the only workload in
which ``sim``/``ntier``/``rubbos``/``monitors``/``logfmt`` do all the
work and no other layer runs, and what every other workload's
``setup_s`` is made of.  One op advances the simulated clock by a fixed
step; the item is a native log line emitted.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.common.timebase import ms, seconds
from repro.experiments.scenarios import scenario_tier_configs
from repro.monitors.event.suite import EventMonitorSuite
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.faults import DBLogFlushFault
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec

import harness
from harness import OpLog, Outcome, Sizes, Tracer

FLUSH_PERIOD_S = 10


def build_system(
    seed: int,
    simulated_s: float,
    log_dir: Path | None,
    kernel: str = "scalar",
    event_monitors: bool = True,
    resource_monitors: bool = True,
) -> tuple[NTierSystem, DBLogFlushFault]:
    """Scenario A, started and ready for ``advance()``."""
    fault = DBLogFlushFault(
        start_at=seconds(harness.FLUSH_AT_S),
        period=seconds(FLUSH_PERIOD_S),
        bursts=max(1, int(simulated_s // FLUSH_PERIOD_S)),
    )
    config = SystemConfig(
        workload=WorkloadSpec(
            users=300, think_time_us=ms(700), ramp_up_us=ms(300)
        ),
        seed=seed,
        log_dir=log_dir,
        kernel=kernel,
        tiers=scenario_tier_configs(),
    )
    system = NTierSystem(config, faults=[fault])
    if event_monitors:
        EventMonitorSuite().attach(system)
    if resource_monitors:
        ResourceMonitorSuite(system, interval_us=ms(50)).start()
    system.start_workload()
    return system, fault


def count_lines(logs: Path) -> tuple[int, int]:
    """``(lines, bytes)`` over every log file of a tree."""
    lines = size = 0
    for _host, path in harness.log_files(logs):
        data = path.read_bytes()
        lines += data.count(b"\n")
        size += len(data)
    return lines, size


def _probe(seed: int, simulated_s: int, log_dir: Path | None, **build) -> tuple[float, int]:
    """Wall seconds and completed requests of one whole run."""
    started = time.perf_counter()
    system, _fault = build_system(seed, simulated_s, log_dir, **build)
    system.advance(seconds(simulated_s))
    result = system.finish()
    return time.perf_counter() - started, len(result.traces)


def layer_probes(seed: int, sizes: Sizes, work: Path) -> dict[str, float]:
    """What the monitors cost, and which kernel runs closed loops faster.

    The same simulated span four ways: bare, + event monitors writing
    logs, + resource monitors (the full scalar config), and the full
    config on the vector kernel.  Monitor cost is the difference
    between neighbours (the paper's Figure 10 question).
    """
    span = sizes.probe_sim_s
    bare_s, requests = _probe(
        seed, span, None, event_monitors=False, resource_monitors=False
    )
    event_s, _ = _probe(
        seed, span, work / "probe-event", resource_monitors=False
    )
    full_s, _ = _probe(seed, span, work / "probe-full")
    vector_s, _ = _probe(seed, span, work / "probe-vector", kernel="vector")
    lines, size = count_lines(work / "probe-full")
    return {
        "sim.scalar.bare_s": bare_s,
        "sim.scalar.requests_per_s": requests / bare_s,
        "sim.scalar.full_s": full_s,
        "sim.vector.full_s": vector_s,
        "monitors.event_s": event_s - bare_s,
        "monitors.resource_s": full_s - event_s,
        "monitors.overhead_pct": (full_s / bare_s - 1.0) * 100.0,
        "monitors.lines": lines,
        "monitors.bytes": size,
    }


def run(
    seed: int, sizes: Sizes, work: Path, tracer: Tracer, traced: bool,
    inject_failure: bool,
) -> Outcome:
    n_ops = sizes.sim_ops // 2 if traced else sizes.sim_ops
    step_us = ms(sizes.sim_step_ms)
    simulated_s = n_ops * sizes.sim_step_ms / 1000.0

    setup_rounds: list[float] = []
    for round_index in range(sizes.setup_rounds):
        logs = work / f"logs-{round_index}"
        elapsed, (system, fault) = harness.timed(
            lambda: build_system(seed, simulated_s, logs)
        )
        setup_rounds.append(elapsed)

    ops = OpLog(tracer, traced, inject_failure)
    cpu_before = harness.cpu_seconds()
    result = None

    def advance(index: int) -> bool:
        nonlocal result
        target = (index + 1) * step_us
        with tracer.span("sim.advance", op=index):
            system.advance(target)
            if index == n_ops - 1:
                result = system.finish()
        return system.engine.now == target

    for _ in range(n_ops):
        ops.run(advance)
    cpu_s = harness.cpu_seconds() - cpu_before

    lines, size = count_lines(logs)
    assert result is not None
    checks = {
        "requests_completed": len(result.traces) > 0,
        "all_16_logs_written": all(
            path.stat().st_size > 0 for _h, path in harness.log_files(logs)
        ) and len(harness.log_files(logs)) == 16,
        "flush_injected": len(fault.flush_windows) >= 1,
    }
    outcome = Outcome(
        setup_rounds_s=setup_rounds,
        ops=ops,
        items=lines,
        busy_s=sum(ops.latencies_s),
        cpu_s=cpu_s,
        disk_bytes_per_item=size / lines,
        checks=checks,
        # The runner compares these across the repeats of a set.
        info={"lines": lines, "traces": len(result.traces)},
    )
    if traced:
        outcome.layers = layer_probes(seed, sizes, work)
        outcome.layers["trace_coverage_pct"] = 100.0 * sum(
            harness.durations(tracer.spans, "sim.advance")
        ) / sum(ops.latencies_where(traced=True))
    return outcome
