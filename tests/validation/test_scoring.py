"""Unit: interval matching and the accuracy figures."""

import pytest

from repro.analysis.anomaly import AnomalyWindow
from repro.analysis.diagnosis import DiagnosisReport, RootCause
from repro.common.timebase import ms, seconds
from repro.validation.runner import SCENARIOS
from repro.validation.schedule import FaultLabel, FaultSchedule
from repro.validation.scoring import score_reports

GATING_SEED = 7  # matches conftest.GATING_SEED


def _label(start, stop, cause="db_log_flush", hostname="db1"):
    return FaultLabel(
        cause=cause,
        tier="mysql",
        hostname=hostname,
        resource="disk",
        start_us=start,
        stop_us=stop,
    )


def _cause(kind, hostname, score=1.0):
    return RootCause(
        hostname=hostname,
        kind=kind,
        label=f"{hostname}: {kind}",
        peak_value=100.0,
        correlation=None,
        score=score,
        explanation="synthetic",
    )


def _report(start, stop, causes=()):
    return DiagnosisReport(
        window=AnomalyWindow(
            start=start, stop=stop, vlrt_count=3, peak_response_ms=200.0
        ),
        queue_findings=[],
        pushback_tiers=[],
        causes=list(causes),
    )


def test_detected_and_attributed():
    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    report = _report(
        seconds(2) + ms(50), seconds(3), causes=[_cause("disk_util", "db1")]
    )
    score = score_reports(schedule, [report])
    assert score.recall == 1.0
    assert score.precision == 1.0
    assert score.attribution_accuracy == 1.0
    assert score.primary_attribution_accuracy == 1.0
    assert score.matches[0].detection_latency_us == ms(50)


def test_latency_clamped_when_window_leads_the_fault():
    # Clustering pads windows backwards; starting before the injected
    # episode is not negative latency.
    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    report = _report(seconds(2) - ms(100), seconds(3))
    score = score_reports(schedule, [report])
    assert score.matches[0].detection_latency_us == 0


def test_missed_label_lowers_recall_not_precision():
    schedule = FaultSchedule(
        [
            _label(seconds(1), seconds(1) + ms(200)),
            _label(seconds(8), seconds(8) + ms(200)),
        ]
    )
    report = _report(seconds(1), seconds(2), causes=[_cause("disk_util", "db1")])
    score = score_reports(schedule, [report])
    assert score.recall == 0.5
    assert score.precision == 1.0
    assert [m.detected for m in score.matches] == [True, False]


def test_false_alarm_lowers_precision_not_recall():
    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    matching = _report(seconds(2), seconds(3))
    spurious = _report(seconds(8), seconds(9))
    score = score_reports(schedule, [matching, spurious])
    assert score.recall == 1.0
    assert score.precision == 0.5


def test_wrong_host_or_kind_is_misattribution():
    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    wrong_host = _report(
        seconds(2), seconds(3), causes=[_cause("disk_util", "web1")]
    )
    score = score_reports(schedule, [wrong_host])
    assert score.recall == 1.0
    assert score.attribution_accuracy == 0.0

    wrong_kind = _report(
        seconds(2), seconds(3), causes=[_cause("cpu_steal", "db1")]
    )
    score = score_reports(schedule, [wrong_kind])
    assert score.attribution_accuracy == 0.0


def test_secondary_cause_counts_as_attributed_but_not_primary():
    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    report = _report(
        seconds(2),
        seconds(3),
        causes=[
            _cause("cpu_busy", "db1", score=2.0),
            _cause("disk_util", "db1", score=1.0),
        ],
    )
    score = score_reports(schedule, [report])
    assert score.attribution_accuracy == 1.0
    assert score.primary_attribution_accuracy == 0.0


def test_slack_bridges_queue_drain_lag():
    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    trailing = _report(seconds(2) + ms(800), seconds(4))
    assert score_reports(schedule, [trailing], slack_us=ms(1_000)).recall == 1.0
    assert score_reports(schedule, [trailing], slack_us=0).recall == 0.0


def test_empty_inputs():
    # No faults injected and no alarms raised: a perfect healthy run.
    score = score_reports(FaultSchedule([]), [])
    assert score.precision == 1.0
    assert score.recall == 1.0
    assert score.attribution_accuracy == 0.0
    assert score.mean_detection_latency_us is None


def test_to_dict_is_json_stable():
    import json

    schedule = FaultSchedule([_label(seconds(2), seconds(2) + ms(300))])
    report = _report(seconds(2), seconds(3), causes=[_cause("disk_util", "db1")])
    first = json.dumps(score_reports(schedule, [report]).to_dict(), sort_keys=True)
    second = json.dumps(score_reports(schedule, [report]).to_dict(), sort_keys=True)
    assert first == second


def test_one_report_detects_one_label():
    # Two episodes 1 s apart; with 1.5 s slack one window overlaps both.
    schedule = FaultSchedule(
        [
            _label(seconds(2), seconds(2) + ms(200)),
            _label(seconds(3), seconds(3) + ms(200), hostname="web1"),
        ]
    )
    report = _report(
        seconds(3), seconds(4), causes=[_cause("disk_util", "db1")]
    )
    score = score_reports(schedule, [report])
    assert score.recall == 0.5
    assert score.precision == 1.0
    # The later label overlaps the window more, so it takes the report;
    # attribution reads that report only.
    assert [m.report_index for m in score.matches] == [None, 0]
    assert score.attribution_accuracy == 0.0


def test_largest_overlap_wins_and_a_duplicate_is_no_false_alarm():
    schedule = FaultSchedule([_label(seconds(2), seconds(3))])
    sliver = _report(seconds(1), seconds(2), causes=[_cause("disk_util", "db1")])
    main = _report(seconds(2), seconds(4), causes=[_cause("cpu_busy", "db1")])
    score = score_reports(schedule, [sliver, main])
    (match,) = score.matches
    assert match.report_index == 1
    assert match.window_start_us == seconds(2)
    assert not match.attributed
    assert score.precision == 1.0
    assert score.to_dict()["matches"][0]["report_index"] == 1


def test_equal_overlap_goes_to_the_earliest_start():
    schedule = FaultSchedule([_label(seconds(2), seconds(3))])
    late = _report(seconds(2) + ms(500), seconds(3) + ms(500))
    early = _report(seconds(1) + ms(500), seconds(2) + ms(500))
    score = score_reports(schedule, [late, early], slack_us=0)
    assert score.matches[0].report_index == 1
    assert score.matches[0].detection_latency_us == 0


def _rows():
    for name, row in SCENARIOS.items():
        marks = () if row.fast else (pytest.mark.nightly,)
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("scenario", list(_rows()))
def test_deleting_a_matched_report_lowers_recall(scenario, validation_runner):
    """Each matched report credits exactly one label, so no other
    window can stand in for it."""
    outcome = validation_runner.run(scenario, seed=GATING_SEED)
    reports = outcome.reports
    matched = {m.report_index for m in outcome.score.matches if m.detected}
    assert matched
    for index in sorted(matched):
        rest = reports[:index] + reports[index + 1 :]
        rescored = score_reports(outcome.schedule, rest)
        assert rescored.recall < outcome.score.recall, (scenario, index)
