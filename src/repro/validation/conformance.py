"""Differential conformance: every "these modes are identical" claim,
asserted in one place.

The pipeline makes several equivalence promises — parallel transform is
byte-identical to serial, a caught-up :class:`LiveTransformer` matches
a one-shot batch, bulk path reconstruction matches scalar, lenient
error policies are no-ops on clean input.  Historically each promise had its own ad-hoc pairwise test;
:data:`CONFORMANCE_PAIRS` is the single catalogue, and
:func:`run_conformance_pair` executes one entry and returns a
:class:`ConformanceResult` that names exactly what diverged (first
differing line of the warehouse dump, or the differing report).

Warehouse-comparing pairs run both sides from the *same* simulated
logs (the baseline side's log directory is reused), so any divergence
is the ingest path's fault, never the simulator's.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path
from typing import Iterable

from repro.validation.runner import ScenarioOutcome, ScenarioRunner

__all__ = [
    "ConformancePair",
    "ConformanceResult",
    "CONFORMANCE_PAIRS",
    "run_conformance_pair",
]


@dataclasses.dataclass(frozen=True, slots=True)
class ConformancePair:
    """One equivalence claim between two pipeline modes."""

    key: str
    baseline_mode: str
    variant_mode: str
    #: ``"warehouse"`` compares full SQL dumps; ``"content"`` compares
    #: the canonical content lines (layout-independent — how a sharded
    #: warehouse is held equal to a monolithic one); ``"paths"`` holds
    #: bulk path reconstruction to the scalar one on one warehouse.
    #: Equal warehouses must then also render equal diagnosis reports.
    compare: str
    claim: str
    #: Simulator kernel the variant side runs on.  A cross-kernel pair
    #: simulates twice (two log directories), so its content lines are
    #: compared with each side's log-dir prefix normalized away —
    #: everything else must match byte for byte.
    variant_kernel: str = "scalar"


CONFORMANCE_PAIRS: tuple[ConformancePair, ...] = (
    ConformancePair(
        key="transform-parallel",
        baseline_mode="batch",
        variant_mode="transform-jobs2",
        compare="warehouse",
        claim="jobs=N transform is byte-identical to serial",
    ),
    ConformancePair(
        key="live-incremental",
        baseline_mode="batch",
        variant_mode="live",
        compare="warehouse",
        claim="a caught-up LiveTransformer matches one-shot batch",
    ),
    ConformancePair(
        key="policy-skip-clean",
        baseline_mode="batch",
        variant_mode="policy-skip",
        compare="warehouse",
        claim="the skip policy is a no-op on clean logs",
    ),
    ConformancePair(
        key="policy-quarantine-clean",
        baseline_mode="batch",
        variant_mode="policy-quarantine",
        compare="warehouse",
        claim="the quarantine policy is a no-op on clean logs",
    ),
    ConformancePair(
        key="causal-bulk",
        baseline_mode="batch",
        variant_mode="batch",
        compare="paths",
        claim="reconstruct_paths_bulk hop-for-hop equals scalar "
        "reconstruct_path",
    ),
    ConformancePair(
        key="warehouse-sharded",
        baseline_mode="batch",
        variant_mode="sharded",
        compare="content",
        claim="a host-partitioned sharded warehouse holds exactly the "
        "monolith's content",
    ),
    ConformancePair(
        key="kernel-vector",
        baseline_mode="batch",
        variant_mode="batch",
        variant_kernel="vector",
        compare="content",
        claim="a vector-kernel simulation yields a warehouse holding "
        "exactly the scalar kernel's content (modulo the log "
        "directory the source paths point into)",
    ),
)


@dataclasses.dataclass(slots=True)
class ConformanceResult:
    """The verdict on one conformance pair for one scenario."""

    pair: ConformancePair
    scenario: str
    seed: int
    equal: bool
    #: Human-readable description of the first divergence (``None``
    #: when ``equal``).
    divergence: str | None

    def to_dict(self) -> dict:
        return {
            "pair": self.pair.key,
            "claim": self.pair.claim,
            "scenario": self.scenario,
            "seed": self.seed,
            "equal": self.equal,
            "divergence": self.divergence,
        }


_END = object()


def _first_dump_divergence(
    baseline: Iterable[str] | str, variant: Iterable[str] | str
) -> str | None:
    """First differing line between two dump line streams.

    Accepts any line iterables (e.g. the streaming
    :meth:`~repro.validation.runner.ScenarioOutcome.dump_lines`) and
    compares them lockstep, so diffing two multi-gigabyte warehouse
    dumps holds one *line* of each in memory, not two full dumps.
    Plain strings are accepted for convenience and split lazily.
    """
    if isinstance(baseline, str):
        baseline = iter(baseline.splitlines())
    if isinstance(variant, str):
        variant = iter(variant.splitlines())
    for index, (expected, got) in enumerate(
        itertools.zip_longest(baseline, variant, fillvalue=_END)
    ):
        if expected is _END or got is _END:
            side, length = (
                ("baseline", index) if expected is _END else ("variant", index)
            )
            return (
                f"warehouse dump length: {side} ends after {length} lines, "
                f"the other side continues"
            )
        if expected != got:
            return (
                f"warehouse dump line {index + 1}: "
                f"baseline {expected!r} != variant {got!r}"
            )
    return None


def _report_divergence(
    baseline: ScenarioOutcome, variant: ScenarioOutcome
) -> str | None:
    base_texts = baseline.report_texts
    var_texts = variant.report_texts
    if len(base_texts) != len(var_texts):
        return (
            f"report count: baseline {len(base_texts)}, "
            f"variant {len(var_texts)}"
        )
    for index, (expected, got) in enumerate(zip(base_texts, var_texts)):
        if expected != got:
            return f"report {index} differs:\n--- baseline\n{expected}\n--- variant\n{got}"
    return None


def _normalized_content_lines(outcome: ScenarioOutcome):
    """Content lines with the outcome's log-dir prefix masked.

    A cross-kernel pair necessarily simulates twice, so the registry
    tables record source paths under two different log directories.
    Masking each side's own prefix with ``<logs>`` leaves every other
    byte — timestamps, payloads, row order — under comparison.
    """
    prefix = str(outcome.log_dir) if outcome.log_dir is not None else None
    for line in outcome.content_lines():
        if prefix is not None and prefix in line:
            line = line.replace(prefix, "<logs>")
        yield line


def _paths_divergence(baseline: ScenarioOutcome) -> str | None:
    """Scalar vs bulk path reconstruction over the baseline warehouse."""
    from repro.analysis.causal import reconstruct_path, reconstruct_paths_bulk
    from repro.warehouse.db import MScopeDB

    with MScopeDB(baseline.db_path) as db:
        front = "apache_events_web1"
        ids = [
            row[0]
            for row in db.query(
                f"SELECT DISTINCT request_id FROM {front} "
                f"ORDER BY request_id"
            )
        ]
        bulk = list(reconstruct_paths_bulk(db, ids))
        if len(bulk) != len(ids):
            return f"bulk returned {len(bulk)} paths for {len(ids)} ids"
        for request_id, bulk_path in zip(ids, bulk):
            scalar_path = reconstruct_path(db, request_id)
            if scalar_path.hops != bulk_path.hops:
                return (
                    f"request {request_id}: scalar hops "
                    f"{scalar_path.hops!r} != bulk hops {bulk_path.hops!r}"
                )
    return None


def run_conformance_pair(
    pair: ConformancePair,
    scenario: str,
    seed: int,
    workdir: Path,
    baseline: ScenarioOutcome | None = None,
    runner: ScenarioRunner | None = None,
) -> ConformanceResult:
    """Execute one pair on one scenario and compare the sides.

    ``baseline`` lets a sweep run the baseline mode once and reuse it
    across every pair, and passing the sweep's ``runner`` reuses its
    cached simulation (the outcome of a given ``(scenario, seed)`` is
    deterministic, so sharing loses nothing).
    """
    if runner is None:
        runner = ScenarioRunner(workdir)
    if baseline is None or baseline.mode != pair.baseline_mode:
        # Sweeps hand every pair their shared batch baseline; a pair
        # anchored elsewhere runs its own — the runner's outcome cache
        # dedups the build.
        baseline = runner.run(scenario, seed=seed, mode=pair.baseline_mode)
    if pair.compare == "paths":
        # Both "sides" read the same warehouse; no variant run needed.
        divergence = _paths_divergence(baseline)
        return ConformanceResult(
            pair=pair,
            scenario=scenario,
            seed=seed,
            equal=divergence is None,
            divergence=divergence,
        )
    variant = runner.run(
        scenario, seed=seed, mode=pair.variant_mode, kernel=pair.variant_kernel
    )
    if pair.compare == "warehouse":
        divergence = _first_dump_divergence(
            baseline.dump_lines(), variant.dump_lines()
        )
    elif pair.variant_kernel != baseline.kernel:
        divergence = _first_dump_divergence(
            _normalized_content_lines(baseline),
            _normalized_content_lines(variant),
        )
    else:
        divergence = _first_dump_divergence(
            baseline.content_lines(), variant.content_lines()
        )
    # Equal warehouses must also diagnose equally; check both so a
    # pair failure always names the earliest layer that diverged.
    if divergence is None:
        divergence = _report_divergence(baseline, variant)
    return ConformanceResult(
        pair=pair,
        scenario=scenario,
        seed=seed,
        equal=divergence is None,
        divergence=divergence,
    )
