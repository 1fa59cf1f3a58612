"""The ``mscope serve`` daemon: continuous ingest + incremental diagnosis.

The cycle logic is synchronous and injectable-clock testable; the
asyncio layer (:meth:`MScopeServeDaemon.run`) only schedules cycles,
handles signals, and hosts the HTTP API.  Each cycle:

1. **Ingest** — one
   :meth:`~repro.transformer.live.LiveTransformer.refresh_directory`
   over the log tree (monolithic or sharded warehouse — both open
   ``threadsafe`` for the executor threads).  Each file's parse cursor
   decides what is new: an unchanged file is not parsed, a grown one
   is parsed from its cursor on, and an unparsable one keeps its
   cursor and is retried next cycle.  The cursors are the daemon's
   only record of what was ingested.  One transformer is all a daemon
   needs: cycles run one at a time under the warehouse lock, and a
   single write stage is what lets tail sampling see a request's
   records from *all* tiers.
2. **Report** — each skipped file becomes an ``ingest-error`` event,
   and the cycle's counters a ``heartbeat``.
3. **Diagnose** — on its own interval, re-run the
   :class:`~repro.analysis.diagnosis.Diagnoser` over fixed
   simulation-time windows covering newly landed data and cache the
   per-window verdicts; the trailing window stays provisional and is
   re-diagnosed until data moves past it.

Shutdown (SIGTERM/SIGINT) drains: ingest cycles repeat until no
cursor moves and no file is skipped, a final diagnosis runs,
and the warehouse closes import-consistent — iterdump-identical to a
batch transform of the same final tree (the serve-smoke CI job holds
this).  Pipeline telemetry is kept in memory for ``/stats`` and is
deliberately *not* persisted into the warehouse, so the batch
equivalence holds against ``mscope transform --no-stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.analysis.causal import CausalPath, reconstruct_paths_bulk
from repro.analysis.diagnosis import Diagnoser
from repro.common.errors import AnalysisError, DeclarationError
from repro.common.timebase import Micros, seconds
from repro.common.windows import format_window
import repro.serve.events as ev
from repro.serve.events import EventBroker
from repro.serve.render import report_to_dict
from repro.serve.state import ServeState
from repro.telemetry.aggregate import RunTelemetry
from repro.telemetry.spans import TelemetryCollector
from repro.transformer.errorpolicy import ErrorPolicy
from repro.transformer.live import LiveTransformer, RefreshOutcome
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import ShardedMScopeDB, open_warehouse

__all__ = [
    "MScopeServeDaemon",
    "ServeConfig",
    "WindowVerdict",
]


@dataclasses.dataclass(slots=True)
class ServeConfig:
    """Everything ``mscope serve`` can be told on the command line."""

    #: Log tree root (host directories underneath, as for transform).
    logs: Path
    #: Warehouse path (file or shard root); ``None`` = in-memory.
    db: Path | None = None
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (see ``bound_port``).
    port: int = 0
    #: Seconds between ingest cycles.
    refresh_interval_s: float = 0.5
    #: Seconds between diagnosis cycles.
    diagnose_interval_s: float = 2.0
    #: Simulation-time width of one diagnosis window (seconds).
    diagnosis_window_s: float = 10.0
    #: VLRT count a window may carry before a floor-breach event.
    vlrt_floor: int = 0
    #: Front tier event table defining response times.
    front_table: str = "apache_events_web1"
    #: Damaged-line policy mode (fail-fast/skip; quarantine is batch-only).
    on_error: str = "fail-fast"
    #: Build a sharded warehouse with this time window (seconds).
    shard_window_s: float | None = None
    #: Epoch override; defaults to run_meta.json then 0.
    epoch_us: int | None = None
    #: Upper bound on drain rounds at shutdown.
    drain_rounds: int = 20
    #: In-memory telemetry span cap (rolling window for ``/stats``).
    telemetry_span_cap: int = 20_000
    #: Log-volume-reduction policy spec (e.g. ``tail:0.05:50``);
    #: ``None`` ingests everything.
    sampling: str | None = None


@dataclasses.dataclass(slots=True)
class WindowVerdict:
    """The cached diagnosis of one fixed time window."""

    key: str
    start_us: Micros
    stop_us: Micros
    reports: list[dict[str, Any]]
    #: Times this window has been (re-)diagnosed.
    passes: int = 1
    #: True once data moved past the window (verdict will not change).
    final: bool = False
    #: Human-readable reason when the window could not be diagnosed.
    error: str | None = None

    @property
    def anomalies(self) -> int:
        return len(self.reports)

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.key,
            "start_s": self.start_us / 1e6,
            "stop_s": self.stop_us / 1e6,
            "anomalies": self.anomalies,
            "passes": self.passes,
            "final": self.final,
            "error": self.error,
            "reports": self.reports,
        }


class MScopeServeDaemon:
    """The always-on milliScope service."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self.state = ServeState()
        self.broker = EventBroker()
        self.telemetry = TelemetryCollector()
        self.db = self._open_db()
        # Run metadata lands exactly as the batch transform records it.
        self.db.carry_run_meta(config.logs)
        self.epoch_us = (
            config.epoch_us if config.epoch_us is not None
            else self.db.recorded_epoch_us()
        )
        self._live = LiveTransformer(
            self.db,
            policy=ErrorPolicy(mode=config.on_error),
            max_retries=0,
            telemetry=self.telemetry,
            on_ingest_error=self._on_ingest_error,
            sampling=config.sampling,
        )
        self._verdicts: dict[str, WindowVerdict] = {}
        self._breached: set[str] = set()
        #: First window not yet final; ``None`` until data exists.
        self._next_window_index: int | None = None
        self._started = clock()
        self._db_lock = threading.Lock()
        self._shutdown = asyncio.Event()
        #: Port actually bound by the HTTP server (after startup).
        self.bound_port: int | None = None

    # -- construction helpers ------------------------------------------

    def _open_db(self) -> MScopeDB:
        config = self.config
        if config.db is None:
            return MScopeDB(threadsafe=True)
        if config.shard_window_s is not None:
            return ShardedMScopeDB(
                config.db,
                window_us=seconds(config.shard_window_s),
                threadsafe=True,
            )
        return open_warehouse(config.db, threadsafe=True)

    def _on_ingest_error(self, source_path: str, reason: str) -> None:
        self.state.ingest_errors += 1
        self.broker.publish(
            ev.INGEST_ERROR, {"file": source_path, "reason": reason}
        )

    # -- the ingest cycle ----------------------------------------------

    def ingest_cycle(self) -> RefreshOutcome:
        """One refresh of the log tree, each file from its cursor."""
        started = self.clock()
        try:
            outcome = self._live.refresh_directory(self.config.logs)
        except DeclarationError:
            # The log tree may not exist yet; serve an empty system.
            outcome = RefreshOutcome()
        for path, reason in outcome.skipped:
            # Usually a mid-write file, sometimes a truncated one; its
            # cursor stayed put, so the next cycle tries it again.
            self.broker.publish(
                ev.INGEST_ERROR, {"file": str(path), "reason": reason}
            )
        self.state.cycles += 1
        self.state.rows += outcome.new_rows
        self._refresh_sampling_gauges()
        self.state.refreshed_files += outcome.refreshed_files
        self.state.skipped_files += outcome.skipped_files
        self.state.last_cycle_s = max(0.0, self.clock() - started)
        self._trim_telemetry()
        self.broker.publish(
            ev.HEARTBEAT,
            {
                "cycle": self.state.cycles,
                "new_rows": outcome.new_rows,
                "refreshed_files": outcome.refreshed_files,
                "skipped_files": outcome.skipped_files,
                "lag_s": round(self.state.last_cycle_s, 6),
                "total_rows": self.state.rows,
            },
        )
        return outcome

    def _refresh_sampling_gauges(self) -> None:
        """Mirror the policy's cumulative totals into state."""
        self.state.sampled_rows, self.state.kept_rows = (
            self._live.sampling_totals()
        )

    def _trim_telemetry(self) -> None:
        """Bound the in-memory span list (a rolling ``/stats`` view)."""
        cap = self.config.telemetry_span_cap
        spans = self.telemetry.spans
        if len(spans) > cap:
            del spans[: len(spans) - cap]

    # -- the diagnosis cycle -------------------------------------------

    def _data_span_us(self) -> tuple[Micros, Micros] | None:
        """Earliest front-tier arrival and latest departure in
        simulation time, or None while there is no data."""
        front = self.config.front_table
        if front not in self.db.tables():
            return None
        # One answer per shard; NULLs from a shard holding no rows.
        spans = [
            span
            for span in self.db.query_table(
                front,
                "SELECT MIN(upstream_arrival_us), MAX(upstream_departure_us) "
                f"FROM {front}",
            )
            if None not in span
        ]
        if not spans:
            return None
        return (
            min(first for first, _ in spans) - self.epoch_us,
            max(last for _, last in spans) - self.epoch_us,
        )

    def diagnose_cycle(self) -> list[WindowVerdict]:
        """(Re-)diagnose every window touched by newly landed data."""
        span = self._data_span_us()
        updated: list[WindowVerdict] = []
        if span is not None:
            first, extent = span
            window_us = seconds(self.config.diagnosis_window_s)
            if self._next_window_index is None:
                # Start where the data does, not at window 0: without
                # an epoch (no run_meta.json) timestamps are Unix
                # microseconds, ~1.4e8 ten-second windows from zero.
                self._next_window_index = max(0, int(first // window_us))
            last = max(self._next_window_index, int(extent // window_us))
            for index in range(self._next_window_index, last + 1):
                verdict = self._diagnose_window(index, window_us)
                verdict.final = index < last
                self._verdicts[verdict.key] = verdict
                updated.append(verdict)
                self._check_floor(verdict)
            # The trailing window is provisional: re-diagnose it until
            # data moves past it.
            self._next_window_index = last
        self.state.diagnose_cycles += 1
        self.state.cached_windows = len(self._verdicts)
        return updated

    def _diagnose_window(
        self, index: int, window_us: Micros
    ) -> WindowVerdict:
        start, stop = index * window_us, (index + 1) * window_us
        key = format_window(start, stop)
        previous = self._verdicts.get(key)
        passes = previous.passes + 1 if previous is not None else 1
        try:
            reports = Diagnoser(
                self.db,
                front_table=self.config.front_table,
                epoch_us=self.epoch_us,
                window_us=(start, stop),
            ).diagnose()
        except AnalysisError as exc:
            return WindowVerdict(
                key=key, start_us=start, stop_us=stop, reports=[],
                passes=passes, error=str(exc),
            )
        return WindowVerdict(
            key=key,
            start_us=start,
            stop_us=stop,
            reports=[report_to_dict(report) for report in reports],
            passes=passes,
        )

    def _check_floor(self, verdict: WindowVerdict) -> None:
        worst = max(
            (r["window"]["vlrt_count"] for r in verdict.reports), default=0
        )
        if worst <= self.config.vlrt_floor or verdict.key in self._breached:
            return
        self._breached.add(verdict.key)
        self.state.floor_breaches += 1
        self.broker.publish(
            ev.FLOOR_BREACH,
            {
                "window": verdict.key,
                "vlrt_count": worst,
                "floor": self.config.vlrt_floor,
                "anomalies": verdict.anomalies,
                "primary_cause": (
                    verdict.reports[0]["causes"][0]["label"]
                    if verdict.reports and verdict.reports[0]["causes"]
                    else None
                ),
            },
        )

    # -- HTTP-facing accessors -----------------------------------------

    def verdicts(
        self, window: tuple[Micros | None, Micros | None] | None = None
    ) -> list[WindowVerdict]:
        """Cached verdicts, oldest first, optionally window-filtered."""
        verdicts = sorted(self._verdicts.values(), key=lambda v: v.start_us)
        if window is None:
            return verdicts
        start, stop = window
        return [
            v for v in verdicts
            if (stop is None or v.start_us < stop)
            and (start is None or v.stop_us > start)
        ]

    def verdict(self, key: str) -> WindowVerdict | None:
        return self._verdicts.get(key)

    def causal_paths(self, request_ids: list[str]) -> list[dict[str, Any]]:
        """Bulk causal-path reconstruction for the ``/paths`` endpoint."""
        from repro.analysis.causal import discover_tier_tables

        with self._db_lock:
            # A live warehouse may not have every tier loaded yet;
            # reconstruct over the tables that exist (Diagnoser does
            # the same), covering every replica the run deployed.
            tables = discover_tier_tables(self.db)
            if not tables:
                return []
            paths = list(
                reconstruct_paths_bulk(self.db, request_ids, tables)
            )
        return [self._path_to_dict(path) for path in paths]

    @staticmethod
    def _path_to_dict(path: CausalPath) -> dict[str, Any]:
        return {
            "request_id": path.request_id,
            "hops": [
                {
                    "tier": hop.tier,
                    "host": hop.host,
                    "upstream_arrival_us": hop.upstream_arrival_us,
                    "upstream_departure_us": hop.upstream_departure_us,
                    "downstream_sending_us": hop.downstream_sending_us,
                    "downstream_receiving_us": hop.downstream_receiving_us,
                    "local_ms": hop.local_time_ms(),
                }
                for hop in path.hops
            ],
        }

    def telemetry_snapshot(self) -> RunTelemetry:
        # The ingest thread appends/trims the span list; aggregate
        # under the same lock the cycles hold (callers use to_thread).
        with self._db_lock:
            return self.telemetry.run_telemetry()

    def health(self) -> dict[str, Any]:
        return dict(
            self.state.to_dict(),
            status="draining" if self.state.draining else "ok",
            uptime_s=round(max(0.0, self.clock() - self._started), 3),
            warehouse=self.db.path,
            epoch_us=self.epoch_us,
        )

    # -- lifecycle ------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin the SIGTERM drain (idempotent, thread-safe-ish: only
        ever called from the event loop via signal handlers or tests)."""
        self._shutdown.set()

    def _locked(self, cycle: Callable[[], Any]) -> Any:
        with self._db_lock:
            return cycle()

    def drain(self) -> None:
        """Catch the warehouse up completely, then close it.

        Ingest cycles repeat until one moves no cursor and skips no
        file — moves no cursor, not merely imports no rows: under a
        tail-sampling policy a consumed file can defer every row and
        still mean progress — (bounded by ``drain_rounds`` in case a log
        writer never stops mid-record), then a final diagnosis pass
        runs.  After this the warehouse content equals a batch transform
        of the same final tree.
        """
        self.state.draining = True
        for _ in range(max(1, self.config.drain_rounds)):
            outcome = self.ingest_cycle()
            if outcome.advanced_files == 0 and outcome.skipped_files == 0:
                break
        # A stateful sampling policy (tail deferral) may still withhold
        # records; commit them before the final diagnosis so deferred
        # VLRT evidence lands in the closing warehouse.
        flushed = self._live.flush_sampling()
        if flushed:
            self.state.rows += flushed
        self._refresh_sampling_gauges()
        self.diagnose_cycle()
        self.broker.publish(
            ev.SHUTDOWN,
            {
                "rows": self.state.rows,
                "cycles": self.state.cycles,
                "cached_windows": self.state.cached_windows,
            },
        )

    async def run(self, ready: asyncio.Event | None = None) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        from repro.serve.http import HttpServer

        loop = asyncio.get_running_loop()
        self.broker.attach_loop(loop)
        http = HttpServer(self)
        server = await http.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_shutdown)
        if ready is not None:
            ready.set()
        last_diagnose = float("-inf")
        try:
            while not self._shutdown.is_set():
                await asyncio.to_thread(self._locked, self.ingest_cycle)
                if (
                    self.clock() - last_diagnose
                    >= self.config.diagnose_interval_s
                ):
                    await asyncio.to_thread(self._locked, self.diagnose_cycle)
                    last_diagnose = self.clock()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._shutdown.wait(),
                        timeout=self.config.refresh_interval_s,
                    )
        finally:
            await asyncio.to_thread(self._locked, self.drain)
            server.close()
            await server.wait_closed()
            await http.wait_idle()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.remove_signal_handler(signum)
            self.db.close()
