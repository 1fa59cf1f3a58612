"""``window_reads``: an analyst poking a built warehouse, on both layouts.

Closed loop, one client, a **fresh** ``open_warehouse(path)`` per op
(see the README's "found while building this", item 1).  Writes happen
in set-up only; the ops are the ``analysis`` + ``warehouse`` read path
on the monolith and on the sharded layout, in seeded-shuffled order,
and op *i* must return equal results on both.  So a write-side win that
drops an index or a sidecar pays here if it costs reads.  The item is
an op.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Callable

from repro.analysis.causal import reconstruct_paths_bulk
from repro.analysis.diagnosis import Diagnoser
from repro.cli import main as mscope
from repro.common.errors import AnalysisError
from repro.common.timebase import seconds
from repro.ntier.tiers import TIER_ORDER
from repro.warehouse.explorer import WarehouseExplorer
from repro.warehouse.sharded import open_warehouse

import harness
from batch_report import FRONT_TABLE, rows_loaded, simulate_tree
from harness import LAYOUTS, OpLog, Outcome, Sizes, Tracer

#: Reads per round and layout.  Two full diagnoses, not one: the
#: sharded ones are the slowest ops, and at one in twenty they would be
#: exactly the 5 % beyond p95, leaving the tail to flip between two
#: kinds of op from run to run.
FULL_DIAGNOSES = 2
WINDOW_DIAGNOSES = 6
PATH_READS = 2
SERIES_PROBES = 10


def build_warehouses(
    seed: int, sizes: Sizes, out: Path
) -> tuple[dict[str, Path], int, float]:
    """Simulate a tree, then build it into a monolith and into shards."""
    logs = simulate_tree(seed, sizes.window_tree_s, out)
    paths = {"mono": out / "mono.db", "sharded": out / "shards"}
    code, text = harness.quiet(mscope, [
        "transform", "--logs", str(logs), "--db", str(paths["mono"]),
        "--jobs", "1",
    ])
    if code != 0:
        raise RuntimeError(f"monolith transform exited {code}")
    rows = rows_loaded(text)
    build_s, (code, _) = harness.timed(lambda: harness.quiet(mscope, [
        "transform", "--logs", str(logs), "--db", str(paths["sharded"]),
        "--shard-window-s", repr(sizes.window_shard_s), "--jobs", "2",
    ]))
    if code != 0:
        raise RuntimeError(f"sharded transform exited {code}")
    return paths, rows, build_s


def well_formed(path) -> bool:
    """Front tier first, no tier skipped, every hop inside the first.

    Not "one hop per tier": a request may query the database twice, or
    never (118 of 1604 stop at tomcat on a 4 s tree).
    """
    tiers = [hop.tier for hop in path.hops]
    visited = [tier for tier in TIER_ORDER if tier in tiers]
    try:
        path.validate_happens_before()
    except AnalysisError:
        return False
    return tiers[0] == TIER_ORDER[0] and visited == list(TIER_ORDER[: len(visited)])


class Reads:
    """The four kinds of read, each returning a comparable digest."""

    def __init__(self, epoch_us: int) -> None:
        self.epoch_us = epoch_us
        self.bad_paths = 0

    def diagnose_full(self, db, _arg) -> Any:
        reports = Diagnoser(db, epoch_us=self.epoch_us).diagnose()
        return [report.to_text() for report in reports]

    def diagnose_window(self, db, window) -> Any:
        reports = Diagnoser(
            db, epoch_us=self.epoch_us, window_us=window
        ).diagnose()
        return [report.to_text() for report in reports]

    def paths_bulk(self, db, ids) -> Any:
        # A generator: consume it inside the timed region.
        paths = list(reconstruct_paths_bulk(db, ids))
        self.bad_paths += sum(1 for p in paths if not well_formed(p))
        return [(p.request_id, tuple(p.hops)) for p in paths]

    def explorer(self, db, request_id) -> Any:
        explorer = WarehouseExplorer(db, FRONT_TABLE, epoch_us=self.epoch_us)
        return (
            repr(explorer.slowest_requests(20)),
            repr(explorer.interaction_stats()),
            explorer.request_flow(request_id),
        )


def round_plan(rng: random.Random, sizes: Sizes, ids: list[str]) -> list[tuple]:
    """One round: 11 logical reads x 2 layouts, shuffled."""
    width = seconds(sizes.window_shard_s)
    horizon = seconds(sizes.window_tree_s)
    reads: list[tuple[str, Any]] = [("diagnose_full", None)] * FULL_DIAGNOSES
    # One random start per equal stratum of the tree, so every round
    # covers it evenly: a window on the flush costs ten times a quiet one.
    stratum = (horizon - width) // WINDOW_DIAGNOSES
    for index in range(WINDOW_DIAGNOSES):
        start = index * stratum + rng.randrange(stratum)
        reads.append(("diagnose_window", (start, start + width)))
    for _ in range(PATH_READS):
        reads.append(("paths_bulk", rng.sample(ids, sizes.window_path_ids)))
    reads.append(("explorer", rng.choice(ids)))
    plan = [
        (logical, layout, kind, arg)
        for logical, (kind, arg) in enumerate(reads)
        for layout in LAYOUTS
    ]
    rng.shuffle(plan)
    return plan


def run(
    seed: int, sizes: Sizes, work: Path, tracer: Tracer, traced: bool,
    inject_failure: bool,
) -> Outcome:
    n_rounds = max(1, sizes.window_rounds // 2) if traced else sizes.window_rounds

    setup_rounds: list[float] = []
    build_times: list[float] = []
    for round_index in range(sizes.setup_rounds):
        elapsed, (paths, rows, build_s) = harness.timed(
            lambda: build_warehouses(seed, sizes, work / f"tree-{round_index}")
        )
        setup_rounds.append(elapsed)
        build_times.append(build_s)

    meta = json.loads((paths["mono"].parent / "run_meta.json").read_text())
    epoch_us = int(meta["epoch_us"])
    with open_warehouse(paths["mono"]) as db:
        ids = sorted(
            row[0] for row in db.query(
                f"SELECT request_id FROM {FRONT_TABLE} "
                "WHERE request_id IS NOT NULL"
            )
        )
    rng = random.Random(seed)
    reads = Reads(epoch_us)
    ops = OpLog(tracer, traced, inject_failure)
    by_kind: dict[tuple[str, str], list[float]] = {}
    shard_opens = 0

    cpu_before = harness.cpu_seconds()
    for _ in range(n_rounds):
        digests: dict[int, dict[str, tuple[int, Any]]] = {}
        for logical, layout, kind, arg in round_plan(rng, sizes, ids):
            read: Callable = getattr(reads, kind)

            def one_read(index: int) -> bool:
                nonlocal shard_opens
                bad_before = reads.bad_paths
                with tracer.span("op", op=index):
                    with tracer.span(f"warehouse.{layout}.open"):
                        db = open_warehouse(paths[layout])
                    try:
                        with tracer.span(f"{layout}.{kind}"):
                            digest = read(db, arg)
                        if layout == "sharded" and kind == "diagnose_full":
                            shard_opens = db.shard_opens
                    finally:
                        with tracer.span(f"warehouse.{layout}.close"):
                            db.close()
                digests.setdefault(logical, {})[layout] = (index, digest)
                return reads.bad_paths == bad_before

            ops.run(one_read, group=(layout, kind))
            by_kind.setdefault((layout, kind), []).append(ops.latencies_s[-1])
        # Op i must read the same on both layouts.
        for pair in digests.values():
            if pair["mono"][1] != pair["sharded"][1]:
                ops.fail(pair["mono"][0])
                ops.fail(pair["sharded"][0])
    cpu_s = harness.cpu_seconds() - cpu_before

    root_bytes = harness.tree_bytes(paths["sharded"])
    outcome = Outcome(
        setup_rounds_s=setup_rounds,
        ops=ops,
        items=len(ops),
        busy_s=sum(ops.latencies_s),
        cpu_s=cpu_s,
        # The layout's size, not the reads': shard-root bytes per row stored.
        disk_bytes_per_item=root_bytes / rows,
        checks={"request_ids_found": len(ids) >= sizes.window_path_ids},
        info={"rows_stored": rows, "shard_root_bytes": root_bytes},
    )
    if traced:
        layers = outcome.layers
        for (layout, kind), samples in by_kind.items():
            family = "warehouse" if kind == "explorer" else "analysis"
            layers[f"{family}.{layout}.{kind}_ms"] = harness.median(samples) * 1e3
        for layout in LAYOUTS:
            layers[f"warehouse.{layout}.open_ms"] = 1e3 * harness.median(
                harness.durations(tracer.spans, f"warehouse.{layout}.open")
            )
            layers[f"warehouse.{layout}.fetch_series_ms"] = 1e3 * harness.median([
                harness.timed(lambda: fetch_series(paths[layout]))[0]
                for _ in range(SERIES_PROBES)
            ])
        layers["warehouse.sharded.shard_opens"] = shard_opens
        layers["warehouse.sharded.root_bytes"] = root_bytes
        layers["warehouse.sharded.build_s"] = harness.median(build_times)
        calls = harness.self_by_op(tracer.spans, ("mono.", "sharded.", "warehouse."))
        layers["trace_coverage_pct"] = 100.0 * sum(
            sum(by_op.values()) for by_op in calls.values()
        ) / sum(ops.latencies_where(traced=True))
    return outcome


def fetch_series(path: Path) -> int:
    """``db.fetch_series`` of one resource column, whole history."""
    with open_warehouse(path) as db:
        return len(db.fetch_series("collectl_db1", "timestamp_us", "dsk_pctutil"))
