"""Shared measurement plumbing for the milliScope end-to-end benchmark.

Everything a workload needs that is not the workload itself: the fixed
sizes, the metric names ``BENCHMARK.json`` declares, the in-memory span
tracer, the tail-percentile rule, and the fold from one run's raw
samples into the seven end-to-end metrics.

The benchmark measures every layer *from outside*: spans are recorded
here, around calls into ``repro``'s public functions, never inside the
program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sim_closed_loop", "batch_report", "window_reads", "serve_tail")

#: name -> unit; the order is the order they print in.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "items_per_s": "1/s",
    "cpu_ms_per_kitem": "ms",
    "peak_rss_mb": "MB",
    "disk_bytes_per_item": "B",
}

PARSERS = ("apache", "tomcat", "cjdbc", "mysql", "sar_text", "iostat", "collectl")
LAYOUTS = ("mono", "sharded")

PER_LAYER = {
    "trace_overhead_pct": "%",
    "trace_coverage_pct": "%",
    # sim_closed_loop
    "sim.scalar.bare_s": "s",
    "sim.scalar.requests_per_s": "1/s",
    "sim.scalar.full_s": "s",
    "sim.vector.full_s": "s",
    "monitors.event_s": "s",
    "monitors.resource_s": "s",
    "monitors.overhead_pct": "%",
    "monitors.lines": "count",
    "monitors.bytes": "B",
    # batch_report
    "transformer.resolve_s": "s",
    "transformer.parse_s": "s",
    "transformer.lines": "count",
    **{f"transformer.parse.{p}_us_per_line": "us" for p in PARSERS},
    "transformer.convert_s": "s",
    "transformer.rows": "count",
    "transformer.xml_write_s": "s",
    "transformer.xml_read_s": "s",
    "transformer.csv_write_s": "s",
    "transformer.import_s": "s",
    "warehouse.mono.db_bytes": "B",
    "telemetry.overhead_pct": "%",
    "analysis.completions_s": "s",
    "analysis.load_s": "s",
    "analysis.diagnose_s": "s",
    "analysis.report_text_s": "s",
    "cli.residual_s": "s",
    # window_reads
    **{f"warehouse.{layout}.open_ms": "ms" for layout in LAYOUTS},
    **{f"analysis.{layout}.diagnose_full_ms": "ms" for layout in LAYOUTS},
    **{f"analysis.{layout}.diagnose_window_ms": "ms" for layout in LAYOUTS},
    **{f"analysis.{layout}.paths_bulk_ms": "ms" for layout in LAYOUTS},
    **{f"warehouse.{layout}.explorer_ms": "ms" for layout in LAYOUTS},
    **{f"warehouse.{layout}.fetch_series_ms": "ms" for layout in LAYOUTS},
    "warehouse.sharded.shard_opens": "count",
    "warehouse.sharded.root_bytes": "B",
    "warehouse.sharded.build_s": "s",
    # serve_tail
    "transformer.live.refresh_s": "s",
    "serve.ingest_cycle_first10_ms": "ms",
    "serve.ingest_cycle_last10_ms": "ms",
    "serve.cycle_growth": "ratio",
    "serve.overhead_ms": "ms",
    "serve.diagnose_cycle_ms": "ms",
    "serve.drain_s": "s",
    "serve.detect_steps": "count",
    "serve.replay_late_p50_ms": "ms",
    "serve.replay_late_max_ms": "ms",
}

#: The injected DB log flush of scenario A starts here (simulated s);
#: a report "overlaps the flush" when its window touches this second.
FLUSH_AT_S = 2.0
FLUSH_SLACK_S = 1.0

#: One reported value is the median of this many repeats (a *set*).
SET_REPEATS = 3


# ----------------------------------------------------------------------
# sizes


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Every size constant of the four workloads.

    The reference sizes fit the builder's contract on a 2-core box
    whose speed swings 2x with its neighbours: 92 driver runs inside
    3420 s leaves ~37 s per run for imports, three set-up rounds, the
    timed phase and the checks even at its slowest.  So the trees are
    4-6 s of simulated logs where the issue sized 15-20 s, the timed
    phase is ~10 s, and the op counts stay at what the tail percentile
    needs (300 -> p95, 50 -> p80, 264 -> p95, 60 -> p80).
    """

    run_seconds: int = 10
    setup_rounds: int = 3
    # sim_closed_loop: ops x step_ms of simulated time, one flush / 10 s
    sim_ops: int = 300
    sim_step_ms: int = 100
    probe_sim_s: int = 10
    # batch_report
    batch_tree_s: float = 4.0
    batch_ops: int = 50
    probe_passes: int = 5
    # window_reads: 22 ops per round, 10 shard windows x 4 hosts
    window_tree_s: float = 6.0
    window_shard_s: float = 0.6
    window_rounds: int = 12
    window_path_ids: int = 200
    # serve_tail: one step per serve_step_s of wall, open loop
    serve_tree_s: float = 4.0
    serve_steps: int = 60
    serve_step_s: float = 0.15
    serve_diagnose_every: int = 4

    def scaled(self, seconds: float, smoke: bool) -> "Sizes":
        """Sizes for another ``--seconds`` (op counts scale linearly).

        ``smoke`` also shrinks the trees and set-up rounds; anything
        but the reference is stamped not-comparable by the runner.
        """
        if seconds == self.run_seconds and not smoke:
            return self
        scale = seconds / self.run_seconds

        def ops(base: int, floor: int) -> int:
            return max(floor, round(base * scale))

        scaled = dataclasses.replace(
            self,
            # >= 3 s simulated even when a traced run halves it: past the flush.
            sim_ops=ops(self.sim_ops, 60),
            batch_ops=ops(self.batch_ops, 4),
            window_rounds=ops(self.window_rounds, 1),
            serve_steps=ops(self.serve_steps, 8),
        )
        if smoke:
            scaled = dataclasses.replace(
                scaled,
                setup_rounds=1,
                probe_sim_s=3,
                probe_passes=1,
                window_tree_s=4.0,
                window_shard_s=0.4,
                window_path_ids=20,
            )
        return scaled


REFERENCE = Sizes()


# ----------------------------------------------------------------------
# percentiles

TAIL_CANDIDATES = (99, 95, 90, 80, 75)


def tail_pct(ops: int) -> int:
    """The highest candidate percentile with >= 10 samples beyond it.

    Fixed by the op count, never chosen per run.  Below 40 ops no
    candidate qualifies and the lowest one is returned; that only
    happens on not-comparable (smoke) sizes.
    """
    for pct in TAIL_CANDIDATES:
        if ops * (100 - pct) >= 10 * 100:
            return pct
    return TAIL_CANDIDATES[-1]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op id]``.

    Disabled (the default) ``span()`` hands back one shared no-op
    context, so the untraced run pays a method call per boundary.
    Traced runs switch ``enabled`` per op (see :func:`traced_op`).
    """

    _NULL = contextlib.nullcontext()

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return self._NULL
        return self._record(name, op)

    @contextlib.contextmanager
    def _record(self, name: str, op: int | None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Write the spans out (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"fields": ["name", "start", "end", "parent", "op"],
                 "spans": self.spans}
            )
        )


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    covered: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                covered.setdefault(parent, []).append((lo, hi))
    result = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        total = 0.0
        reach = start
        for lo, hi in sorted(covered.get(index, ())):
            lo = max(lo, reach)
            if hi > lo:
                total += hi - lo
                reach = hi
        result.append((end - start) - total)
    return result


def self_by_op(
    spans: list[list[Any]], prefix: str | tuple[str, ...]
) -> dict[str, dict[Any, float]]:
    """``name -> op id -> summed self time`` for spans named ``prefix*``."""
    selfs = self_times(spans)
    table: dict[str, dict[Any, float]] = {}
    for (name, _s, _e, _p, op), own in zip(spans, selfs):
        if name.startswith(prefix):
            per_op = table.setdefault(name, {})
            per_op[op] = per_op.get(op, 0.0) + own
    return table


def durations(spans: list[list[Any]], name: str) -> list[float]:
    """Durations of every span called ``name``, in recording order."""
    return [end - start for n, start, end, _p, _o in spans if n == name]


def traced_op(index: int) -> bool:
    """Which ops of a traced run carry spans: T U U T  U T T U, repeated.

    Both halves then sample the same positions of any linear drift
    (the simulator's clock, the daemon's growing files), so their
    medians compare as ``trace_overhead_pct``; and with period 8 they
    also split evenly the ops next to ``serve_tail``'s every-4th-step
    diagnosis, which a period of 4 would hand to one side.
    """
    return index % 8 in (0, 3, 5, 6)


# ----------------------------------------------------------------------
# one run's raw samples


class OpLog:
    """Latencies and verdicts of one run's ops."""

    def __init__(self, tracer: Tracer, traced: bool, inject_failure: bool) -> None:
        self.tracer = tracer
        self.traced = traced
        self._inject = inject_failure
        self.latencies_s: list[float] = []
        self.ok: list[bool] = []
        self.was_traced: list[bool] = []
        self.groups: list[Any] = []

    def __len__(self) -> int:
        return len(self.ok)

    def begin(self) -> int:
        """Index of the op about to run; arms the tracer for it."""
        index = len(self.ok)
        self.tracer.enabled = self.traced and traced_op(index)
        return index

    def end(self, latency_s: float, ok: bool, group: Any = None) -> None:
        if self._inject and not self.ok:
            ok = False
        self.was_traced.append(self.tracer.enabled)
        self.groups.append(group)
        self.tracer.enabled = False
        self.latencies_s.append(latency_s)
        self.ok.append(ok)

    def fail(self, index: int) -> None:
        self.ok[index] = False

    def run(self, body: Callable[[int], bool], group: Any = None) -> None:
        """Time ``body(index)``; its return value is the op's check.

        ``group`` names the op's kind where a workload mixes kinds of
        very different cost (see :meth:`trace_overhead_pct`).
        """
        index = self.begin()
        started = time.perf_counter()
        ok = body(index)
        self.end(time.perf_counter() - started, ok, group)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)

    def good_ms(self) -> list[float]:
        """Latency samples: a failed op's latency is not one."""
        return [s * 1e3 for s, ok in zip(self.latencies_s, self.ok) if ok]

    def latencies_where(self, traced: bool) -> list[float]:
        """Latencies (s) of the ops that did, or did not, carry spans."""
        return [s for s, t in zip(self.latencies_s, self.was_traced) if t == traced]

    def trace_overhead_pct(self) -> float:
        """Traced vs untraced latency, from neighbouring ops of one kind.

        Within each group, consecutive ops pair up; a pair with one
        traced and one untraced op gives a ratio, and the result is
        the median ratio.  Neighbours share the machine's mood and the
        workload's drift (and :func:`traced_op` puts the traced op
        first as often as second), which whole-run medians do not: on
        ``serve_tail`` those read anywhere from -1 % to +25 %.
        """
        ratios = []
        for group in set(self.groups):
            mine = [
                (s, t) for s, t, g in
                zip(self.latencies_s, self.was_traced, self.groups) if g == group
            ]
            for (a_s, a_traced), (b_s, b_traced) in zip(mine[::2], mine[1::2]):
                if a_traced != b_traced:
                    ratios.append(a_s / b_s if a_traced else b_s / a_s)
        return (median(ratios) - 1.0) * 100.0 if ratios else 0.0


@dataclasses.dataclass
class Outcome:
    """What a workload hands back to the runner."""

    setup_rounds_s: list[float]
    ops: OpLog
    items: int
    busy_s: float
    cpu_s: float
    #: bytes the pipeline leaves on disk per item (the workload names
    #: which bytes over which items).
    disk_bytes_per_item: float
    #: run-level checks (not tied to one op); each False one counts as
    #: a failed op.
    checks: dict[str, bool]
    #: per-layer metric values (traced runs only).
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    info: dict[str, Any] = dataclasses.field(default_factory=dict)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(os.times()[:4])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def fold(outcome: Outcome, import_s: float, traced: bool) -> dict[str, Any]:
    """One run's result in the builder contract's shape."""
    ops = outcome.ops
    bad_checks = sorted(k for k, ok in outcome.checks.items() if not ok)
    attempted = len(ops)
    failed = min(attempted, ops.failed + len(bad_checks))
    info = dict(outcome.info, ops=attempted, tail_pct=tail_pct(attempted),
                items=outcome.items, busy_s=outcome.busy_s,
                failed_checks=bad_checks)
    if traced:
        layers = dict(outcome.layers,
                      trace_overhead_pct=ops.trace_overhead_pct())
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {unknown}")
        # A layer this workload never calls spends 0 there: the
        # "should not move" column of the README's table.
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        good = ops.good_ms()
        items = max(1, outcome.items)
        values = {
            "setup_s": import_s + median(outcome.setup_rounds_s),
            "op_p50_ms": percentile(good, 50) if good else 0.0,
            "op_tail_ms": percentile(good, info["tail_pct"]) if good else 0.0,
            "items_per_s": outcome.items / outcome.busy_s,
            "cpu_ms_per_kitem": outcome.cpu_s / items * 1e6,
            "peak_rss_mb": peak_rss_mb(),
            "disk_bytes_per_item": outcome.disk_bytes_per_item,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


# ----------------------------------------------------------------------
# small shared helpers


def quiet(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str]:
    """Run a CLI entry point with stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def sqlite_bytes(db_path: Path) -> int:
    """A sqlite file plus whatever journal files sit beside it."""
    return sum(p.stat().st_size for p in db_path.parent.glob(db_path.name + "*"))


def log_files(logs: Path) -> list[tuple[str, Path]]:
    """``(host, file)`` in the transformer's scan order."""
    return [
        (host.name, path)
        for host in sorted(p for p in logs.iterdir() if p.is_dir())
        for path in sorted(host.glob("*.log"))
    ]


def overlaps_flush(start_s: float, stop_s: float) -> bool:
    return start_s < FLUSH_AT_S + FLUSH_SLACK_S and stop_s > FLUSH_AT_S


@contextlib.contextmanager
def work_dir(label: str) -> Iterator[Path]:
    """A scratch directory inside the benchmark's own directory.

    The builder's contract forbids writing outside the checkout, so
    no ``/tmp``; ``.work`` is git-ignored and removed on the way out.
    """
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value
