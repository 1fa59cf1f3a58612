"""Differential conformance: every "these modes are identical" claim,
asserted in one place.

The pipeline makes several equivalence promises — parallel transform is
byte-identical to serial, a caught-up :class:`LiveTransformer` matches
a one-shot batch, a sharded warehouse holds the monolith's content,
lenient error policies are no-ops on clean input.  Historically each
promise had its own ad-hoc pairwise test; :data:`CONFORMANCE_PAIRS` is
the single catalogue, and :func:`run_conformance_pair` executes one
entry and returns a :class:`ConformanceResult` that names exactly what
diverged (first differing line of the warehouse dump, the differing
report, or the differing score field).  ``mscope validate`` scores only the batch
build and relies on the score comparison: every other build is
checked, not assumed, to score the same.

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
    #: warehouse is held equal to a monolithic one).  Equal warehouses
    #: must then also render equal diagnosis reports.
    compare: str
    claim: str


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
        key="warehouse-sharded",
        baseline_mode="batch",
        variant_mode="sharded",
        compare="content",
        claim="a host-partitioned sharded warehouse holds exactly the "
        "monolith's content",
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


def _score_divergence(
    baseline: ScenarioOutcome, variant: ScenarioOutcome
) -> str | None:
    base_score = baseline.score.to_dict()
    var_score = variant.score.to_dict()
    for field in sorted(base_score):
        if base_score[field] != var_score[field]:
            return (
                f"score {field}: baseline {base_score[field]!r} "
                f"!= variant {var_score[field]!r}"
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
    variant = runner.run(scenario, seed=seed, mode=pair.variant_mode)
    if pair.compare == "warehouse":
        divergence = _first_dump_divergence(
            baseline.dump_lines(), variant.dump_lines()
        )
    else:
        divergence = _first_dump_divergence(
            baseline.content_lines(), variant.content_lines()
        )
    # Equal warehouses must also diagnose and score equally; check
    # each layer in turn so a pair failure names the earliest that
    # diverged.
    if divergence is None:
        divergence = _report_divergence(baseline, variant)
    if divergence is None:
        divergence = _score_divergence(baseline, variant)
    return ConformanceResult(
        pair=pair,
        scenario=scenario,
        seed=seed,
        equal=divergence is None,
        divergence=divergence,
    )
