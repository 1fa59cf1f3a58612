"""The accuracy/volume frontier: floor logic plus the gating sweep.

The pinned operating point's guarantees are claimed nowhere and tested
everywhere: ``test_pinned_policy_holds_every_floor_on_fast_scenarios``
is the in-suite copy of the gating CI check — it runs the real
pipeline (simulate, sample, ingest, diagnose, score) through
``mscope validate --sampling pinned`` and asserts the
:data:`~repro.sampling.frontier.FRONTIER_FLOORS` directly.
"""

import json
from pathlib import Path

import pytest

from repro.sampling.frontier import (
    DEFAULT_POLICY_GRID,
    FRONTIER_FLOORS,
    PINNED_POLICY,
)
from repro.validation.runner import ScenarioOutcome
from repro.validation.schedule import FaultLabel, FaultSchedule
from repro.validation.scoring import MatchedLabel, ValidationScore


def make_outcome(
    scenario: str,
    detected: int = 2,
    row_reduction: float = 16.0,
    byte_reduction: float = 15.5,
) -> ScenarioOutcome:
    """A sampled outcome over two labels, ``detected`` of them found
    and attributed at rank 1."""
    labels = [
        FaultLabel("db_log_flush", "mysql", "db1", "disk", start, start + 300)
        for start in (1_000, 5_000)
    ]
    matches = [
        MatchedLabel(
            label=label,
            detected=index < detected,
            window_start_us=label.start_us if index < detected else None,
            window_stop_us=label.stop_us if index < detected else None,
            detection_latency_us=0 if index < detected else None,
            attributed=index < detected,
            attributed_primary=index < detected,
        )
        for index, label in enumerate(labels)
    ]
    return ScenarioOutcome(
        scenario=scenario,
        seed=7,
        mode="batch",
        score=ValidationScore(
            matches=matches,
            reports_total=detected,
            reports_matched=detected,
            slack_us=0,
        ),
        reports=[],
        schedule=FaultSchedule(labels),
        db_path=Path("unused.db"),
        sampling=PINNED_POLICY,
        row_reduction=row_reduction,
        byte_reduction=byte_reduction,
    )


def test_floors_pass_on_a_clean_frontier():
    assert make_outcome("db_log_flush").passes_floors(FRONTIER_FLOORS) == []


def test_floors_flag_every_violated_metric_per_scenario():
    clean = make_outcome("db_log_flush")
    bad = make_outcome("jvm_gc", detected=1, byte_reduction=4.0)
    assert clean.passes_floors(FRONTIER_FLOORS) == []
    violations = bad.passes_floors(FRONTIER_FLOORS)
    assert violations == [
        "byte_reduction 4.000 < floor 10.000",
        "recall 0.500 < floor 0.900",
    ]


def test_the_grid_brackets_the_pinned_point():
    assert PINNED_POLICY in DEFAULT_POLICY_GRID
    families = {spec.split(":")[0] for spec in DEFAULT_POLICY_GRID}
    assert families == {"head", "tail"}


@pytest.mark.slow
def test_pinned_policy_holds_every_floor_on_fast_scenarios(tmp_path, capsys):
    """The gating check: ≥10x measured reduction at recall ≥ 0.9."""
    from repro.cli import main
    from repro.validation.runner import SCENARIOS

    code = main(
        [
            "validate",
            "--scenario",
            "fast",
            "--seed",
            "7",
            "--sampling",
            "pinned",
            "--check-floors",
            "--format",
            "json",
            "--workdir",
            str(tmp_path),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["failures"] == []
    cells = payload["scenarios"]
    assert [cell["scenario"] for cell in cells] == [
        name for name, spec in SCENARIOS.items() if spec.fast
    ]
    for cell in cells:
        assert cell["sampling"] == PINNED_POLICY
        score = cell["score"]
        assert score["recall"] >= FRONTIER_FLOORS["recall"]
        assert (
            score["primary_attribution_accuracy"]
            >= FRONTIER_FLOORS["rank1_attribution"]
        )
        assert cell["row_reduction"] >= FRONTIER_FLOORS["row_reduction"]
        assert cell["byte_reduction"] >= FRONTIER_FLOORS["byte_reduction"]
