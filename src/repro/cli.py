"""The ``mscope`` command-line interface.

The main subcommands mirror the framework's workflow:

* ``mscope run``        — simulate an instrumented scenario, writing
  native monitor logs plus a ``run_meta.json`` describing the run;
* ``mscope transform``  — run mScopeDataTransformer over a log
  directory into an mScopeDB file;
* ``mscope errors``     — report the ingest errors a lenient
  transform recorded;
* ``mscope stats``      — render the pipeline telemetry a transform
  persisted (per-stage latency percentiles, per-worker utilization)
  as text, JSON, or Prometheus exposition format;
* ``mscope diagnose``   — run the VSB diagnosis engine over a
  warehouse and print the reports;
* ``mscope serve``      — run the always-on daemon: continuous
  tail-ingest of a growing log tree, incremental diagnosis, and an
  HTTP API (``/healthz``, ``/stats``, ``/reports``, ``/paths``, SSE
  ``/events``);
* ``mscope validate``   — simulate labeled faults, build, diagnose and
  score the diagnosis against the injected ground truth (optionally
  under each sampling policy, and with every build-equivalence pair);
* ``mscope figures``    — regenerate the paper's figures.

Example session::

    mscope run --scenario a --out out/
    mscope transform --logs out/logs --db out/mscope.db --on-error=quarantine
    mscope errors --db out/mscope.db
    mscope stats --db out/mscope.db
    mscope diagnose --db out/mscope.db
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

from repro.common.errors import AnalysisError
from repro.common.timebase import seconds
from repro.transformer.errorpolicy import ERROR_MODES, QUARANTINE, ErrorPolicy

# Each handler imports what it runs: the parser needs none of it, and
# ``--help`` or ``mscope stats`` should not pay for the simulator, the
# diagnosis engine and numpy.

__all__ = ["main", "build_parser"]


def _positive_seconds(text: str) -> float:
    """A finite number of simulated seconds, at least one microsecond."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and seconds(value) > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds, at least 1 µs: {text!r}"
        )
    return value


def _sampling_spec(text: str) -> str | None:
    """The canonical spec of a policy, the string its ledger records
    (``head:0.10`` -> ``head:0.1``); ``None`` for ``none``."""
    from repro.sampling.policy import parse_policy

    try:
        policy = parse_policy(text)
    except AnalysisError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return None if policy is None else policy.spec


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="mscope",
        description="milliScope: fine-grained monitoring for n-tier services",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="simulate an instrumented scenario")
    run.add_argument(
        "--scenario",
        choices=("a", "b", "baseline"),
        default="a",
        help="a = DB log flush, b = dirty pages, baseline = healthy run",
    )
    run.add_argument("--seed", type=int, default=3)
    run.add_argument(
        "--duration",
        type=_positive_seconds,
        default=None,
        help="simulated seconds (default: 5 for a and b, 6 for baseline)",
    )
    run.add_argument(
        "--workload", type=int, default=2000, help="users (baseline scenario)"
    )
    run.add_argument("--out", type=Path, required=True, help="output directory")

    transform = subparsers.add_parser(
        "transform", help="native logs -> mScopeDB"
    )
    transform.add_argument("--logs", type=Path, required=True)
    transform.add_argument("--db", type=Path, required=True)
    transform.add_argument(
        "--workdir", type=Path, default=None, help="keep XML/CSV artifacts here"
    )
    transform.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parse/convert worker processes (default: all cores; "
        "1 = fully in-process)",
    )
    transform.add_argument(
        "--on-error",
        choices=ERROR_MODES,
        default="fail-fast",
        help="damaged-line handling: fail-fast aborts (default), skip "
        "records and continues, quarantine also diverts the raw lines",
    )
    transform.add_argument(
        "--quarantine-dir",
        type=Path,
        default=None,
        help="where quarantined lines/files go "
        "(default: <db>.quarantine next to the warehouse)",
    )
    transform.add_argument(
        "--error-budget",
        type=int,
        default=1000,
        help="damaged records tolerated per file before the file "
        "fails; 0 = unlimited (lenient modes only)",
    )
    transform.add_argument(
        "--shard",
        action="store_true",
        help="build a host-partitioned shard directory instead of one "
        "database file (--db then names the directory); --jobs fans "
        "out parsing exactly as for one file",
    )
    transform.add_argument(
        "--shard-window-s",
        type=float,
        default=None,
        help="also partition each host's shards into time windows of "
        "this many seconds (implies --shard); windowed reads then "
        "open only the overlapping shards",
    )
    transform.add_argument(
        "--sampling",
        type=_sampling_spec,
        default=None,
        metavar="POLICY",
        help="log-volume-reduction policy: head:RATE (coherent "
        "per-request) or tail:BASE:THRESHOLD_MS (always keep VLRTs); "
        "sampled-out rows are counted in the sampling_ledger table",
    )
    transform.add_argument(
        "--no-stats",
        action="store_true",
        help="disable pipeline telemetry (the warehouse then stays "
        "byte-identical to a pre-telemetry one)",
    )
    transform.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        help="also write the run's full telemetry (including "
        "drain-queue depth samples) to this JSON file",
    )

    errors = subparsers.add_parser(
        "errors", help="report recorded ingest errors"
    )
    errors.add_argument("--db", type=Path, required=True)
    errors.add_argument(
        "--limit", type=int, default=50, help="rows to print (0 = all)"
    )

    stats = subparsers.add_parser(
        "stats", help="render persisted pipeline telemetry"
    )
    stats.add_argument("--db", type=Path, required=True)
    stats.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        help="text table (default), JSON export, or Prometheus "
        "exposition format",
    )

    diagnose = subparsers.add_parser(
        "diagnose", help="find and explain very short bottlenecks"
    )
    diagnose.add_argument("--db", type=Path, required=True)
    diagnose.add_argument(
        "--epoch-us",
        type=int,
        default=None,
        help="epoch offset; defaults to the warehouse's recorded value",
    )
    diagnose.add_argument(
        "--no-stats",
        action="store_true",
        help="skip recording analysis-stage telemetry into the "
        "warehouse",
    )
    diagnose.add_argument(
        "--window",
        default=None,
        metavar="START:STOP",
        help="diagnose only requests completing in this simulation-"
        "time window (seconds; either side may be empty) — on a "
        "sharded warehouse only the overlapping shards are read",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the always-on daemon: tail-ingest, incremental "
        "diagnosis, HTTP API",
    )
    serve.add_argument(
        "--logs", type=Path, required=True,
        help="log tree to tail (host directories underneath; may "
        "still be growing)",
    )
    serve.add_argument(
        "--db", type=Path, default=None,
        help="warehouse path (file or shard root); omitted = "
        "in-memory, lost at exit",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="HTTP port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening (for scripts "
        "using --port 0)",
    )
    serve.add_argument(
        "--refresh-interval", type=float, default=0.5, metavar="SECONDS",
        help="delay between ingest cycles",
    )
    serve.add_argument(
        "--diagnose-interval", type=float, default=2.0, metavar="SECONDS",
        help="delay between incremental diagnosis cycles",
    )
    serve.add_argument(
        "--diagnosis-window", type=float, default=10.0, metavar="SECONDS",
        help="width of one cached diagnosis window",
    )
    serve.add_argument(
        "--vlrt-floor", type=int, default=0,
        help="VLRT count a window may carry before a floor-breach "
        "event is published",
    )
    serve.add_argument(
        "--on-error", choices=["fail-fast", "skip"], default="fail-fast",
        help="damaged-line policy for live ingest (quarantine is "
        "batch-only)",
    )
    serve.add_argument(
        "--shard-window-s", type=float, default=None,
        help="build a sharded warehouse with this time window instead "
        "of a monolith",
    )
    serve.add_argument(
        "--epoch-us", type=int, default=None,
        help="epoch offset; defaults to run_meta.json next to the "
        "log tree, then 0",
    )
    serve.add_argument(
        "--sampling", type=_sampling_spec, default=None, metavar="POLICY",
        help="log-volume-reduction policy for live ingest (as for "
        "transform --sampling); deferred tail records commit during "
        "the shutdown drain, before the final diagnosis",
    )

    shards = subparsers.add_parser(
        "shards", help="inspect and manage a sharded warehouse"
    )
    shards.add_argument("--db", type=Path, required=True)
    shards.add_argument(
        "--drop-before",
        type=float,
        default=None,
        metavar="SECONDS",
        help="retention: delete shards entirely before this warehouse "
        "timestamp (seconds)",
    )
    shards.add_argument(
        "--compact-before",
        type=float,
        default=None,
        metavar="SECONDS",
        help="merge each host's shards before this warehouse "
        "timestamp (seconds) into one rollup shard",
    )

    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's figures"
    )
    figures.add_argument(
        "--which",
        default="2,4,5,6,7,8",
        help="comma-separated figure numbers (2,4,5,6,7,8,9,10,11)",
    )

    report = subparsers.add_parser(
        "report", help="write a Markdown investigation report"
    )
    report.add_argument("--db", type=Path, required=True)
    report.add_argument("--out", type=Path, required=True)
    report.add_argument("--epoch-us", type=int, default=None)

    validate = subparsers.add_parser(
        "validate",
        help="score diagnosis accuracy against injected ground truth",
    )
    validate.add_argument(
        "--scenario",
        default="db_log_flush",
        help="a registered scenario (an unknown name lists them), "
        "'fast' (the gating four), or 'all' (the nightly sweep)",
    )
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument(
        "--sampling",
        default=None,
        metavar="POLICIES",
        help="score each log-volume-reduction policy instead of the "
        "unsampled build: 'grid' (the frontier grid), 'pinned' (the "
        "pinned operating point, held to the frontier floors), or "
        "comma-separated specs (held to the scenario's floors)",
    )
    validate.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human-readable summary (default) or the full JSON report",
    )
    validate.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the full JSON report to this file (the "
        "nightly matrix uploads it as an artifact)",
    )
    validate.add_argument(
        "--check-floors",
        action="store_true",
        help="exit non-zero when a scored build misses its floors "
        "(the scenario's registered floors; the frontier floors at the "
        "pinned sampling policy)",
    )
    validate.add_argument(
        "--conformance",
        action="store_true",
        help="also run every differential conformance pair on the "
        "selected scenario(s)",
    )
    validate.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="keep run artifacts (logs, schedules, warehouses) here "
        "(default: a temporary directory, removed afterwards)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "transform": _cmd_transform,
        "errors": _cmd_errors,
        "stats": _cmd_stats,
        "diagnose": _cmd_diagnose,
        "serve": _cmd_serve,
        "figures": _cmd_figures,
        "report": _cmd_report,
        "shards": _cmd_shards,
        "validate": _cmd_validate,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------


def _cmd_run(args) -> int:
    code = _simulate(args)
    # A finished run's object graph (engine, processes, servers,
    # monitors) is cyclic, so reference counting never frees it; collect
    # it here, or a caller that simulates again carries this run into
    # the next one.
    gc.collect()
    return code


def _simulate(args) -> int:
    import repro.experiments.scenarios as scenarios
    from repro.common.records import RUN_META_FILE

    out: Path = args.out
    log_dir = out / "logs"
    default_s = 6 if args.scenario == "baseline" else 5
    duration = seconds(default_s if args.duration is None else args.duration)
    if args.scenario == "a":
        run = scenarios.scenario_a(
            seed=args.seed, duration=duration, log_dir=log_dir
        )
    elif args.scenario == "b":
        run = scenarios.scenario_b(
            seed=args.seed, duration=duration, log_dir=log_dir
        )
    else:
        run = scenarios.baseline_run(
            args.workload,
            seed=args.seed,
            duration=duration,
            log_dir=log_dir,
            resource_monitors=True,
        )
    meta = {
        "scenario": args.scenario,
        "seed": run.system.config.seed,
        "duration_us": run.duration,
        "epoch_us": run.epoch_us,
        "workload_users": run.system.config.workload.users,
        "completed_requests": len(run.result.traces),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / RUN_META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    print(
        f"scenario {meta['scenario']}: {meta['completed_requests']} requests, "
        f"{run.result.throughput():.0f} req/s, "
        f"mean RT {run.result.mean_response_time_ms():.2f} ms"
    )
    print(f"logs -> {log_dir}")
    return 0


def _open_existing(path: Path):
    """The warehouse at ``path`` for a read-only subcommand, or ``None``
    after saying there is none: a mistyped ``--db`` must not leave an
    empty warehouse behind."""
    from repro.warehouse.sharded import MANIFEST_FILE, open_warehouse

    if not (path.is_file() or (path / MANIFEST_FILE).is_file()):
        print(f"no warehouse at {path}", file=sys.stderr)
        return None
    return open_warehouse(path)


def _cmd_report(args) -> int:
    from repro.analysis.report import write_markdown_report

    db = _open_existing(args.db)
    if db is None:
        return 2
    with db:
        epoch = args.epoch_us
        if epoch is None:
            epoch = db.recorded_epoch_us()
        path = write_markdown_report(db, args.out, epoch_us=epoch)
    print(f"report -> {path}")
    return 0


def _cmd_transform(args) -> int:
    from repro.telemetry.spans import TelemetryCollector
    from repro.transformer.pipeline import MScopeDataTransformer
    from repro.warehouse.db import MScopeDB
    from repro.warehouse.sharded import ShardedMScopeDB

    quarantine_dir = args.quarantine_dir
    if args.on_error == QUARANTINE and quarantine_dir is None:
        quarantine_dir = Path(f"{args.db}.quarantine")
    policy = ErrorPolicy(
        mode=args.on_error,
        budget=args.error_budget if args.error_budget > 0 else None,
        quarantine_dir=quarantine_dir if args.on_error == QUARANTINE else None,
    )
    telemetry = None if args.no_stats else TelemetryCollector()
    if args.shard or args.shard_window_s is not None:
        window_us = (
            seconds(args.shard_window_s)
            if args.shard_window_s is not None
            else None
        )
        db: MScopeDB = ShardedMScopeDB(args.db, window_us=window_us)
    else:
        db = MScopeDB(args.db)
    transformer = MScopeDataTransformer(
        db, workdir=args.workdir, jobs=args.jobs, policy=policy,
        telemetry=telemetry, sampling=args.sampling,
    )
    outcomes = transformer.transform_directory(args.logs)
    db.carry_run_meta(args.logs)
    rows = sum(o.rows_loaded for o in outcomes)
    for outcome in outcomes:
        where = f"{outcome.source.parent.name}/{outcome.source.name}"
        if outcome.failed:
            print(f"  {where} -> FAILED ({outcome.error_count} errors)")
        elif outcome.error_count:
            print(
                f"  {where} -> {outcome.table_name} "
                f"({outcome.rows_loaded} rows, {outcome.error_count} errors)"
            )
        else:
            print(
                f"  {where} -> {outcome.table_name}"
                f" ({outcome.rows_loaded} rows)"
            )
    print(f"{len(outcomes)} logs, {rows} rows -> {args.db}")
    if args.sampling:
        summary = db.sampling_summary()
        if summary is not None:
            print(
                f"sampling {args.sampling}: kept "
                f"{summary['rows_kept']}/{summary['rows_seen']} governed "
                f"rows ({summary['row_reduction']:.1f}x rows, "
                f"{summary['byte_reduction']:.1f}x bytes)"
            )
    errors = sum(o.error_count for o in outcomes)
    if errors:
        failed = sum(1 for o in outcomes if o.failed)
        print(
            f"{errors} ingest errors ({failed} files failed); "
            f"inspect with: mscope errors --db {args.db}"
        )
        if policy.mode == QUARANTINE:
            print(f"quarantined lines -> {policy.quarantine_dir}")
    if telemetry is not None:
        run_stats = telemetry.run_telemetry()
        parse = run_stats.stages.get("parse")
        if parse is not None:
            print(
                f"telemetry: parse p50 {parse.histogram.percentile(0.5)}us, "
                f"p99 {parse.histogram.percentile(0.99)}us over "
                f"{parse.spans} files; inspect with: mscope stats "
                f"--db {args.db}"
            )
        if args.stats_json is not None:
            from repro.telemetry.export import render_json

            args.stats_json.parent.mkdir(parents=True, exist_ok=True)
            args.stats_json.write_text(render_json(run_stats))
            print(f"telemetry json -> {args.stats_json}")
    db.close()
    return 0


def _cmd_stats(args) -> int:
    from repro.telemetry.aggregate import RunTelemetry
    from repro.telemetry.export import (
        render_json,
        render_prometheus,
        render_text,
    )

    db = _open_existing(args.db)
    if db is None:
        return 2
    with db:
        telemetry = RunTelemetry.from_db(db)
        if telemetry is None:
            print(
                "no pipeline telemetry recorded (transform ran with "
                "--no-stats or a no-op sink)"
            )
            return 1
        renderer = {
            "text": render_text,
            "json": render_json,
            "prom": render_prometheus,
        }[args.format]
        print(renderer(telemetry), end="")
    return 0


def _cmd_errors(args) -> int:
    db = _open_existing(args.db)
    if db is None:
        return 2
    with db:
        rows = db.ingest_errors()
        if not rows:
            print("no ingest errors recorded")
            return 0
        shown = rows if args.limit <= 0 else rows[: args.limit]
        current = None
        for source_path, line_number, parser, reason, excerpt in shown:
            if source_path != current:
                current = source_path
                print(f"{source_path} [{parser}]")
            where = "whole file" if line_number == 0 else f"line {line_number}"
            print(f"  {where}: {reason}")
            if excerpt:
                print(f"    | {excerpt}")
        if len(shown) < len(rows):
            print(f"... {len(rows) - len(shown)} more (use --limit 0)")
        print(f"{len(rows)} ingest errors in {args.db}")
    return 1


def _cmd_diagnose(args) -> int:
    from repro.analysis.diagnosis import Diagnoser
    from repro.common.windows import WindowParseError, parse_window
    from repro.telemetry.spans import NULL_TELEMETRY, TelemetryCollector

    window = None
    if args.window is not None:
        try:
            window = parse_window(args.window)
        except WindowParseError as exc:
            print(f"bad --window: {exc}", file=sys.stderr)
            return 2
    db = _open_existing(args.db)
    if db is None:
        return 2
    with db:
        epoch = args.epoch_us
        if epoch is None:
            epoch = db.recorded_epoch_us()
        telemetry = NULL_TELEMETRY if args.no_stats else TelemetryCollector()
        try:
            reports = Diagnoser(
                db,
                epoch_us=epoch,
                telemetry=telemetry,
                window_us=window,
            ).diagnose()
        except AnalysisError as exc:
            print(f"cannot diagnose {args.db}: {exc}", file=sys.stderr)
            return 2
        # Analysis spans land next to the ingest stages, so `mscope
        # stats` shows one end-to-end latency breakdown.
        telemetry.persist_stages(db)
    if not reports:
        print("no anomaly windows found")
        return 1
    for report in reports:
        print(report.to_text())
        print()
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.daemon import MScopeServeDaemon, ServeConfig

    config = ServeConfig(
        logs=args.logs,
        db=args.db,
        host=args.host,
        port=args.port,
        refresh_interval_s=args.refresh_interval,
        diagnose_interval_s=args.diagnose_interval,
        diagnosis_window_s=args.diagnosis_window,
        vlrt_floor=args.vlrt_floor,
        on_error=args.on_error,
        shard_window_s=args.shard_window_s,
        epoch_us=args.epoch_us,
        sampling=args.sampling,
    )
    daemon = MScopeServeDaemon(config)

    async def _serve() -> None:
        ready = asyncio.Event()
        runner = asyncio.ensure_future(daemon.run(ready))
        await ready.wait()
        print(
            f"listening on http://{config.host}:{daemon.bound_port}",
            flush=True,
        )
        if args.port_file is not None:
            args.port_file.write_text(f"{daemon.bound_port}\n")
        await runner

    asyncio.run(_serve())
    print(
        f"drained: {daemon.state.rows} rows over {daemon.state.cycles} "
        f"cycles, {daemon.state.cached_windows} diagnosis windows cached"
    )
    return 0


def _cmd_shards(args) -> int:
    from repro.warehouse.sharded import ShardedMScopeDB

    db = _open_existing(args.db)
    if db is None:
        return 2
    if not isinstance(db, ShardedMScopeDB):
        print(f"{args.db} is a monolithic warehouse (no shards)")
        db.close()
        return 1
    # Cutoffs and spans are simulation-time seconds (rebased by the
    # recorded epoch), matching diagnose --window.
    epoch = db.recorded_epoch_us()
    if args.drop_before is not None:
        dropped = db.drop_shards_before(seconds(args.drop_before) + epoch)
        print(f"dropped {dropped} shards before {args.drop_before:g}s")
    if args.compact_before is not None:
        merged = db.compact_shards_before(
            seconds(args.compact_before) + epoch
        )
        print(f"compacted {merged} shards before {args.compact_before:g}s")
    window = db.window_us
    label = f"{window / 1_000_000:g}s windows" if window else "host-only"
    print(f"{args.db}: {label}")
    for info in sorted(db.shard_manifest(), key=lambda i: i.sort_key()):
        if info.start_us is None and info.stop_us is None:
            span = "all time" if info.window_index == 0 else "no timestamp"
        else:
            span = (
                f"{(info.start_us - epoch) / 1_000_000:g}s-"
                f"{(info.stop_us - epoch) / 1_000_000:g}s"
            )
        tables = ", ".join(sorted(info.tables)) or "-"
        print(f"  {info.relpath}  [{span}]  {tables}")
    db.close()
    return 0


def _cmd_validate(args) -> int:
    import shutil
    import tempfile

    from repro.sampling.frontier import (
        DEFAULT_POLICY_GRID,
        FRONTIER_FLOORS,
        PINNED_POLICY,
    )
    from repro.validation.conformance import (
        CONFORMANCE_PAIRS,
        run_conformance_pair,
    )
    from repro.validation.runner import SCENARIOS, ScenarioRunner

    known = (*SCENARIOS, "fast", "all")
    if args.scenario not in known:
        print(
            f"bad --scenario: {args.scenario!r}; expected one of "
            f"{', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    if args.scenario == "fast":
        names = [name for name, spec in SCENARIOS.items() if spec.fast]
    elif args.scenario == "all":
        names = list(SCENARIOS)
    else:
        names = [args.scenario]
    policies: list[str | None]
    if args.sampling is None:
        policies = [None]
    elif args.sampling == "grid":
        policies = list(DEFAULT_POLICY_GRID)
    elif args.sampling == "pinned":
        policies = [PINNED_POLICY]
    else:
        # Canonical, so a respelled pinned point is held to its floors.
        try:
            policies = [
                _sampling_spec(spec) for spec in args.sampling.split(",") if spec
            ]
        except argparse.ArgumentTypeError as exc:
            print(f"bad --sampling: {exc}", file=sys.stderr)
            return 2

    workdir = args.workdir
    cleanup = workdir is None
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="mscope-validate-"))
    runner = ScenarioRunner(workdir)
    outcomes = []
    conformance_results = []
    failures: list[str] = []
    try:
        for name in names:
            spec = SCENARIOS[name]
            for policy in policies:
                # Every policy is scored on the batch build; the
                # conformance pairs prove the other builds equal to it.
                outcome = runner.run(name, seed=args.seed, sampling=policy)
                outcomes.append(outcome)
                if args.check_floors:
                    floors = (
                        FRONTIER_FLOORS if policy == PINNED_POLICY
                        else spec.floors
                    )
                    where = name if policy is None else f"{name} [{policy}]"
                    failures.extend(
                        f"{where}: {violation}"
                        for violation in outcome.passes_floors(floors)
                    )
            if args.conformance:
                for pair in CONFORMANCE_PAIRS:
                    result = run_conformance_pair(
                        pair, name, args.seed, workdir, runner=runner
                    )
                    conformance_results.append(result)
                    if not result.equal:
                        failures.append(
                            f"{name} conformance {pair.key}: "
                            f"{result.divergence}"
                        )
        payload = {
            "seed": args.seed,
            "scenarios": [outcome.to_dict() for outcome in outcomes],
            "conformance": [
                result.to_dict() for result in conformance_results
            ],
            "failures": failures,
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True)
        if args.json is not None:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(rendered + "\n")
        if args.format == "json":
            print(rendered)
        else:
            for outcome in outcomes:
                print(outcome.to_text())
                print()
            for result in conformance_results:
                status = "ok" if result.equal else "DIVERGED"
                print(
                    f"conformance {result.pair.key} "
                    f"[{result.scenario}]: {status} — {result.pair.claim}"
                )
                if not result.equal:
                    print(f"  {result.divergence}")
            if failures:
                print()
                for failure in failures:
                    print(f"FAIL: {failure}")
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


def _cmd_figures(args) -> int:
    from repro.experiments.figures_anomaly import (
        figure_02,
        figure_04,
        figure_05,
        figure_06,
        figure_07,
        figure_08,
    )
    from repro.experiments.figures_validation import figure_09, figure_10, figure_11
    from repro.experiments.scenarios import scenario_a, scenario_b

    wanted = {token.strip() for token in args.which.split(",") if token.strip()}
    run_a = None
    if wanted & {"2", "4", "5", "6", "7"}:
        run_a = scenario_a()
    for number in sorted(wanted, key=int):
        if number == "2":
            print(figure_02(run_a).to_text())
        elif number == "4":
            print(figure_04(run_a).to_text())
        elif number == "5":
            print(figure_05(run_a).to_text())
        elif number == "6":
            print(figure_06(run_a).to_text())
        elif number == "7":
            print(figure_07(run_a).to_text())
        elif number == "8":
            print(figure_08(scenario_b()).to_text())
        elif number == "9":
            print(figure_09(workload=2000, duration=seconds(6)).to_text())
        elif number == "10":
            print(figure_10(workloads=(1000, 2000), duration=seconds(6)).to_text())
        elif number == "11":
            print(figure_11(workloads=(1000, 2000), duration=seconds(6)).to_text())
        else:
            print(f"unknown figure {number!r}", file=sys.stderr)
            return 2
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
