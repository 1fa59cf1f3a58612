"""End-to-end scenario execution and scoring.

:class:`ScenarioRunner` drives the full milliScope loop for one entry
of the :data:`SCENARIOS` registry:

1. simulate the scenario with its fault injectors, writing native
   mScopeMonitors logs (seeded — the whole run is a deterministic
   function of ``(scenario, seed)``);
2. capture the injectors' recorded episodes as a
   :class:`~repro.validation.schedule.FaultSchedule`, saved next to the
   logs;
3. build the warehouse through one of several *modes* (batch,
   parallel transform, live incremental, lenient error policies) — the
   pipeline claims them all equivalent, and the conformance runner
   holds it to that;
4. diagnose and score the reports against the schedule.

The resulting :class:`ScenarioOutcome` renders to a JSON document that
contains no wall-clock times or filesystem paths, so two runs with the
same ``(scenario, seed, mode)`` produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
from pathlib import Path

from repro.analysis.diagnosis import Diagnoser, DiagnosisReport
from repro.common.errors import ConfigError
from repro.common.timebase import Micros
from repro.experiments.scenarios import (
    SCENARIOS,
    RunMetadata,
    record_run_metadata,
    run_scenario,
)
from repro.telemetry.spans import NULL_TELEMETRY, TelemetryCollector
from repro.transformer.errorpolicy import QUARANTINE, SKIP, ErrorPolicy
from repro.transformer.live import LiveTransformer
from repro.transformer.pipeline import MScopeDataTransformer
from repro.validation.schedule import FaultSchedule
from repro.validation.scoring import (
    DEFAULT_SLACK_US,
    ValidationScore,
    score_reports,
)
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import ShardedMScopeDB, open_warehouse

__all__ = [
    "MODES",
    "SCENARIOS",
    "ScenarioOutcome",
    "ScenarioRunner",
]

SCHEDULE_FILE = "fault_schedule.json"

#: Warehouse-construction modes the pipeline claims equivalent.  Every
#: mode ends in the same diagnosis; ``sharded`` builds a
#: host-partitioned :class:`ShardedMScopeDB` instead of a monolithic
#: file.  ``mscope validate`` scores ``batch``; the conformance pairs
#: hold every other mode equal to it.
MODES = (
    "batch",
    "transform-jobs2",
    "live",
    "policy-skip",
    "policy-quarantine",
    "sharded",
)


@dataclasses.dataclass(slots=True)
class ScenarioOutcome:
    """Everything one validated scenario run produced.

    The built warehouse stays on disk at :attr:`db_path`; dump
    accessors reopen it lazily and *stream*, so conformance can diff
    two warehouses line-by-line without ever holding a full dump in
    memory.
    """

    scenario: str
    seed: int
    mode: str
    score: ValidationScore
    reports: list[DiagnosisReport]
    schedule: FaultSchedule
    db_path: Path
    #: Log-volume-reduction policy the build ran under (``None`` =
    #: unsampled), and the reduction its ``sampling_ledger`` measured.
    sampling: str | None = None
    row_reduction: float = 1.0
    byte_reduction: float = 1.0

    def dump_lines(self):
        """The warehouse SQL dump, streamed line by line."""
        db = open_warehouse(self.db_path)
        try:
            yield from db.iterdump()
        finally:
            db.close()

    def content_lines(self):
        """Canonical *content* lines — layout-independent, so a sharded
        and a monolithic warehouse built from the same logs compare
        equal (what the ``warehouse-sharded`` pair diffs)."""
        db = open_warehouse(self.db_path)
        try:
            yield from db.iterdump_content()
        finally:
            db.close()

    @property
    def warehouse_dump(self) -> str:
        """Full warehouse SQL dump as one string (materialized —
        prefer :meth:`dump_lines` for comparisons)."""
        return "\n".join(self.dump_lines())

    @property
    def report_texts(self) -> list[str]:
        return [report.to_text() for report in self.reports]

    def passes_floors(self, floors: dict[str, float]) -> list[str]:
        """Floor violations (empty = all floors met).

        ``floors`` may name any accuracy metric or, for a sampled build,
        the measured volume reduction: a scenario's registered floors
        and :data:`~repro.sampling.frontier.FRONTIER_FLOORS` are checked
        the same way.
        """
        actual = {
            "precision": self.score.precision,
            "recall": self.score.recall,
            "attribution": self.score.attribution_accuracy,
            "rank1_attribution": self.score.primary_attribution_accuracy,
            "row_reduction": self.row_reduction,
            "byte_reduction": self.byte_reduction,
        }
        return [
            f"{metric} {actual[metric]:.3f} < floor {floor:.3f}"
            for metric, floor in sorted(floors.items())
            if actual[metric] < floor
        ]

    def to_dict(self) -> dict:
        """Deterministic summary: no wall-clock, no filesystem paths."""
        summary = {
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": self.mode,
            "score": self.score.to_dict(),
            "reports": self.report_texts,
        }
        if self.sampling is not None:
            summary["sampling"] = self.sampling
            summary["row_reduction"] = round(self.row_reduction, 2)
            summary["byte_reduction"] = round(self.byte_reduction, 2)
        return summary

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        score = self.score
        latency = score.mean_detection_latency_us
        sampling = "" if self.sampling is None else f", sampling {self.sampling}"
        lines = [
            f"scenario {self.scenario} "
            f"(seed {self.seed}, mode {self.mode}{sampling})",
            f"  injected episodes : {score.labels_total}",
            f"  detected          : {score.labels_detected}",
            f"  precision         : {score.precision:.3f}",
            f"  recall            : {score.recall:.3f}",
            f"  attribution       : {score.attribution_accuracy:.3f}"
            f" (primary {score.primary_attribution_accuracy:.3f})",
            "  detection latency : "
            + (f"{latency / 1000:.0f} ms" if latency is not None else "n/a"),
        ]
        if self.sampling is not None:
            lines.append(
                f"  volume reduction  : {self.row_reduction:.1f}x rows, "
                f"{self.byte_reduction:.1f}x bytes"
            )
        for match in score.matches:
            label = match.label
            span = f"[{label.start_us / 1e6:.3f}s, {label.stop_us / 1e6:.3f}s]"
            if match.detected:
                status = "detected" + (
                    ", attributed" if match.attributed else ", MISATTRIBUTED"
                )
            else:
                status = "MISSED"
            lines.append(
                f"    {label.cause} on {label.hostname} {span}: {status}"
            )
        return "\n".join(lines)


class ScenarioRunner:
    """Runs registry scenarios end to end and scores the diagnoses.

    Parameters
    ----------
    workdir:
        Where per-run directories (native logs, fault schedule,
        warehouse) are created.
    telemetry:
        Optional collector threaded through transform and diagnosis;
        its spans persist into the warehouse's ``pipeline_metrics``.
        Defaults to the no-op sink so conformance mode pairs compare
        pure monitoring data.
    """

    def __init__(
        self,
        workdir: Path,
        telemetry: TelemetryCollector | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # One simulation per (scenario, seed), shared by every
        # mode: all modes then ingest the *same* native logs, so
        # warehouse dumps (which record source paths) are directly
        # comparable and any conformance divergence is the ingest
        # path's fault.  Only the run's metadata and fault schedule
        # are kept; the simulation itself is freed once they are read.
        self._runs: dict[tuple[str, int], tuple[RunMetadata, FaultSchedule]] = {}
        # One outcome per (scenario, seed, mode, sampling):
        # re-requesting a mode (e.g. the conformance pairs' batch
        # baseline after the scored batch build) must reuse the built
        # warehouse, not re-ingest into it.
        self._outcomes: dict[
            tuple[str, int, str, str | None], ScenarioOutcome
        ] = {}

    def run(
        self,
        scenario: str,
        seed: int = 7,
        mode: str = "batch",
        slack_us: Micros = DEFAULT_SLACK_US,
        sampling: str | None = None,
    ) -> ScenarioOutcome:
        """Simulate, ingest (per ``mode``), diagnose, and score.

        ``sampling`` threads a log-volume-reduction policy spec into
        the warehouse build (``mscope validate --sampling`` varies it);
        the outcome carries the reduction the warehouse's
        ``sampling_ledger`` measured.
        """
        if scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; "
                f"registered: {', '.join(sorted(SCENARIOS))}"
            )
        if mode not in MODES:
            raise ConfigError(
                f"unknown mode {mode!r}; expected one of {MODES}"
            )
        done = self._outcomes.get((scenario, seed, mode, sampling))
        if done is not None:
            if done.score.slack_us == slack_us:
                return done
            # Same warehouse and reports; only the matching slack
            # changed — re-score without re-ingesting.
            return dataclasses.replace(
                done,
                score=score_reports(
                    done.schedule, done.reports, slack_us=slack_us
                ),
            )

        rundir = self.workdir / f"{scenario}-seed{seed}"
        # Distinct policy specs build distinct warehouses; slug the
        # spec into the directory so a policy sweep never collides.
        leaf = mode if sampling is None else f"{mode}+{sampling.replace(':', '_')}"
        mode_dir = rundir / leaf
        mode_dir.mkdir(parents=True, exist_ok=True)

        cached = self._runs.get((scenario, seed))
        if cached is None:
            # A leftover logs tree (reused --workdir) must not survive:
            # the monitors append to existing files, which would double
            # every log line on re-simulation.
            shutil.rmtree(rundir / "logs", ignore_errors=True)
            run = run_scenario(scenario, seed, rundir / "logs")
            schedule = FaultSchedule.from_faults(run.system, run.faults)
            schedule.save(rundir / SCHEDULE_FILE)
            meta = run.metadata
            self._runs[(scenario, seed)] = (meta, schedule)
            # The finished run's object graph is cyclic: drop it and
            # collect now, or it lives on through every later build.
            del run
            gc.collect()
        else:
            meta, schedule = cached

        if mode == "sharded":
            db_path = mode_dir / "mscope.shards"
            # Always build from scratch: appending to a leftover
            # warehouse (a reused --workdir, say) would silently
            # double every table.
            shutil.rmtree(db_path, ignore_errors=True)
        else:
            db_path = mode_dir / "mscope.db"
            db_path.unlink(missing_ok=True)
        db = self._build_warehouse(meta, db_path, mode, mode_dir, sampling)
        try:
            reports = Diagnoser(
                db, epoch_us=meta.epoch_us, telemetry=self.telemetry
            ).diagnose()
            self.telemetry.persist_stages(db)
            ledger = db.sampling_summary() if sampling is not None else None
        finally:
            db.close()
        score = score_reports(schedule, reports, slack_us=slack_us)
        outcome = ScenarioOutcome(
            scenario=scenario,
            seed=seed,
            mode=mode,
            score=score,
            reports=reports,
            schedule=schedule,
            db_path=db_path,
            sampling=sampling,
            row_reduction=ledger["row_reduction"] if ledger else 1.0,
            byte_reduction=ledger["byte_reduction"] if ledger else 1.0,
        )
        self._outcomes[(scenario, seed, mode, sampling)] = outcome
        return outcome

    def _build_warehouse(
        self,
        meta: RunMetadata,
        db_path: Path,
        mode: str,
        rundir: Path,
        sampling: str | None = None,
    ) -> MScopeDB:
        assert meta.log_dir is not None  # every registry run has a log_dir
        if mode == "sharded":
            # Host-partitioned warehouse loaded by the same jobs=2
            # fan-out as ``transform-jobs2``.  Host-only sharding (no
            # time window) keeps per-table row order identical to a
            # serial batch build, so even diagnosis-report equality
            # holds.
            sharded = ShardedMScopeDB(db_path)
            transformer = MScopeDataTransformer(
                sharded, jobs=2, telemetry=self.telemetry, sampling=sampling
            )
            transformer.transform_directory(meta.log_dir)
            record_run_metadata(meta, sharded)
            return sharded
        db = MScopeDB(db_path)
        if mode == "live":
            # One catch-up refresh over the finished logs; incremental
            # split behaviour is covered by the live property test.
            live = LiveTransformer(db, telemetry=self.telemetry, sampling=sampling)
            live.refresh_directory(meta.log_dir)
            live.flush_sampling()
        else:
            policy = None
            if mode == "policy-skip":
                policy = ErrorPolicy(mode=SKIP)
            elif mode == "policy-quarantine":
                policy = ErrorPolicy(
                    mode=QUARANTINE, quarantine_dir=rundir / "quarantine"
                )
            jobs = 2 if mode == "transform-jobs2" else 1
            transformer = MScopeDataTransformer(
                db,
                jobs=jobs,
                policy=policy,
                telemetry=self.telemetry,
                sampling=sampling,
            )
            transformer.transform_directory(meta.log_dir)
        record_run_metadata(meta, db)
        return db
