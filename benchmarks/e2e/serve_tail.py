"""``serve_tail``: the always-on daemon tailing a growing log tree.

**Open loop**, fixed schedule: every ``serve_step_s`` of wall time one
more chunk is appended to all 16 files (half real time: each step
carries half a step's worth of simulated logs) and the daemon runs an
ingest cycle; every 4th step it also diagnoses.  Op latency runs from
the step's *due* time to ``ingest_cycle()`` returning, so an overrun is
charged to the steps it delays.  The only workload whose cost depends
on bytes already ingested (``LiveTransformer`` re-parses from byte 0);
``batch_report`` bypasses that code entirely.  The item is a warehouse
row landed.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.anomaly import detect_vlrt
from repro.analysis.response_time import completions_from_warehouse
from repro.cli import main as mscope
from repro.serve.daemon import MScopeServeDaemon, ServeConfig
from repro.transformer.live import LiveTransformer
from repro.warehouse.db import MScopeDB

import harness
import replay
from batch_report import FRONT_TABLE, rows_loaded, simulate_tree
from harness import OpLog, Outcome, Sizes, Tracer

#: The schedule was not held (the run is *saturated*) when more than a
#: tenth of the steps start this late; one slow diagnosis does not count.
LATE_TOLERANCE_S = 0.010
FRONT_LOG = ("web1", "access_log.log")


def make_daemon(seed: int, sizes: Sizes, out: Path):
    """Simulate, chunk, lay out the empty live tree, start a daemon."""
    source_logs = simulate_tree(seed, sizes.serve_tree_s, out / "tree")
    chunks = replay.chunk_tree(source_logs, sizes.serve_steps)
    live_logs = replay.lay_out_live_tree(source_logs, out / "live", chunks)
    daemon = MScopeServeDaemon(ServeConfig(logs=live_logs, db=out / "serve.db"))
    return daemon, live_logs, chunks


def flush_detected(daemon: MScopeServeDaemon) -> bool:
    return any(
        harness.overlaps_flush(r["window"]["start_s"], r["window"]["stop_s"])
        for verdict in daemon.verdicts()
        for r in verdict.reports
    )


def first_vlrt_step(reference: MScopeDB, epoch_us: int, chunks) -> int:
    """The step whose chunk carries the first VLRT request's log line."""
    completions = completions_from_warehouse(reference, FRONT_TABLE, epoch_us)
    vlrts = detect_vlrt(completions)
    if not vlrts:
        return 0
    first = min(vlrts, key=lambda v: v.completed_at).request_id.encode()
    for step, chunk in enumerate(chunks[FRONT_LOG]):
        if first in chunk:
            return step
    return 0


def bare_refresh_replay(
    sizes: Sizes, chunks, source_logs: Path, out: Path, tracer: Tracer
) -> list[float]:
    """The same replay through a bare ``LiveTransformer``, no daemon.

    As fast as it will go (nothing waits on the schedule); returns the
    seconds each step's refreshes took.
    """
    live_logs = replay.lay_out_live_tree(source_logs, out / "live-bare", chunks)
    per_step = []
    with MScopeDB(out / "bare.db") as db:
        live = LiveTransformer(db, max_retries=0)
        files = live.declared_files(live_logs)
        for step in range(sizes.serve_steps):
            replay.append_step(live_logs, chunks, step)
            started = time.perf_counter()
            with tracer.span("transformer.live.refresh", op=step):
                for host, path in files:
                    if chunks[(host, path.name)][step]:
                        live.refresh_file(path, host)
            per_step.append(time.perf_counter() - started)
    return per_step


def run(
    seed: int, sizes: Sizes, work: Path, tracer: Tracer, traced: bool,
    inject_failure: bool,
) -> Outcome:
    steps = sizes.serve_steps
    interval = sizes.serve_step_s

    setup_rounds: list[float] = []
    daemon = None
    for round_index in range(sizes.setup_rounds):
        if daemon is not None:
            daemon.db.close()
        out = work / f"round-{round_index}"
        elapsed, (daemon, live_logs, chunks) = harness.timed(
            lambda: make_daemon(seed, sizes, out)
        )
        setup_rounds.append(elapsed)
    assert daemon is not None

    ops = OpLog(tracer, traced, inject_failure)
    late: list[float] = []
    cycle_s: list[float] = []
    diagnose_s: list[float] = []
    busy_s = 0.0
    detected_at: int | None = None

    cpu_before = harness.cpu_seconds()
    schedule_start = time.perf_counter()
    for step in range(steps):
        due = schedule_start + step * interval
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        ops.begin()
        began = time.perf_counter()
        late.append(max(0.0, began - due))
        with tracer.span("op", op=step):
            with tracer.span("replay.append"):
                replay.append_step(live_logs, chunks, step)
            cycle_began = time.perf_counter()
            with tracer.span("serve.ingest_cycle"):
                cycle = daemon.ingest_cycle()
            ended = time.perf_counter()
        cycle_s.append(ended - cycle_began)
        ops.end(ended - due, cycle.skipped_files == 0)
        busy_s += ended - began
        if (step + 1) % sizes.serve_diagnose_every == 0:
            tracer.enabled = traced
            began = time.perf_counter()
            with tracer.span("serve.diagnose_cycle", op=step):
                daemon.diagnose_cycle()
            diagnose_s.append(time.perf_counter() - began)
            tracer.enabled = False
            busy_s += diagnose_s[-1]
            if detected_at is None and flush_detected(daemon):
                detected_at = step
    tracer.enabled = traced
    with tracer.span("serve.drain"):
        drain_s, _ = harness.timed(daemon.drain)
    tracer.enabled = False
    busy_s += drain_s
    cpu_s = harness.cpu_seconds() - cpu_before

    # The drained warehouse must equal a batch transform of the final tree.
    reference_path = work / "reference.db"
    code, text = harness.quiet(mscope, [
        "transform", "--logs", str(live_logs), "--db", str(reference_path),
        "--no-stats", "--jobs", "1",
    ])
    batch_rows = rows_loaded(text) if code == 0 else -1
    rows = daemon.state.rows
    with MScopeDB(reference_path) as reference:
        dumps_equal = list(daemon.db.iterdump_content()) == list(
            reference.iterdump_content()
        )
        vlrt_step = first_vlrt_step(reference, daemon.epoch_us, chunks)
    checks = {
        "no_skipped_files": daemon.state.skipped_files == 0,
        "rows_equal_batch": rows == batch_rows,
        "drained_dump_equals_batch": dumps_equal,
        "verdict_overlaps_flush": flush_detected(daemon),
    }
    daemon.db.close()

    late_max = max(late)
    outcome = Outcome(
        setup_rounds_s=setup_rounds,
        ops=ops,
        items=rows,
        busy_s=busy_s,
        cpu_s=cpu_s,
        disk_bytes_per_item=harness.sqlite_bytes(out / "serve.db") / max(1, rows),
        checks=checks,
        info={
            "late_p50_ms": harness.median(late) * 1e3,
            "late_max_ms": late_max * 1e3,
            "saturated": sum(1 for s in late if s > LATE_TOLERANCE_S) > steps // 10,
        },
    )
    if traced:
        refresh_s = bare_refresh_replay(
            sizes, chunks, out / "tree" / "logs", work, tracer
        )
        first, last = cycle_s[:10], cycle_s[-10:]
        outcome.layers = {
            "transformer.live.refresh_s": sum(refresh_s),
            "serve.ingest_cycle_first10_ms": harness.median(first) * 1e3,
            "serve.ingest_cycle_last10_ms": harness.median(last) * 1e3,
            "serve.cycle_growth": harness.median(last) / harness.median(first),
            "serve.overhead_ms": 1e3 * harness.median(
                [cycle - bare for cycle, bare in zip(cycle_s, refresh_s)]
            ),
            "serve.diagnose_cycle_ms": harness.median(diagnose_s) * 1e3,
            "serve.drain_s": drain_s,
            "serve.detect_steps": (
                detected_at - vlrt_step if detected_at is not None else steps
            ),
            "serve.replay_late_p50_ms": harness.median(late) * 1e3,
            "serve.replay_late_max_ms": late_max * 1e3,
            # Layers under the daemon's cycles, over all non-idle time;
            # the rest is serve.overhead_ms plus the generator's appends.
            "trace_coverage_pct": 100.0
            * (sum(refresh_s) + sum(diagnose_s) + drain_s) / busy_s,
        }
    return outcome
