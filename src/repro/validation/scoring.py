"""Scoring diagnosis output against a labeled fault schedule.

Interval matching with slack: a diagnosed
:class:`~repro.analysis.anomaly.AnomalyWindow` *overlaps* a
:class:`~repro.validation.schedule.FaultLabel` when the two intervals
intersect within ``slack_us``.  Slack absorbs detection physics rather
than hiding misses — queues keep draining after the bottleneck lifts,
and the VLRT requests that reveal an episode complete up to a
queue-drain time after it ends, so diagnosed windows legitimately trail
injected intervals.

Detection is a one-to-one matching: each report detects at most one
label and each label is detected by at most one report.  Pairs are
taken greedily, largest overlap with the slack-widened label first,
ties to the earliest window start, so slack can widen the overlap test
but never make one window count twice.

From the matching we report the four accuracy figures the harness
gates on:

* **recall** — labeled episodes detected / episodes injected;
* **precision** — diagnosed windows overlapping any label / windows
  reported (false alarms lower it; a window split in two is a
  duplicate, not a false alarm, so it does not);
* **detection latency** — how far the matched window's start trails
  the episode's start (0 when the window starts first, which the
  clustering margin legitimately allows);
* **cause attribution** — of the detected episodes, how many the
  matched report pinned on the right host *and* resource kind.
  ``attributed`` counts the cause appearing anywhere in the ranked
  list; ``attributed_primary`` demands rank 1.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.diagnosis import DiagnosisReport
from repro.common.timebase import Micros, ms
from repro.ntier.faults import FAULTS
from repro.validation.schedule import FaultLabel, FaultSchedule

__all__ = [
    "MatchedLabel",
    "ValidationScore",
    "score_reports",
]

#: Default matching slack.  Queue-drain after a 300–800 ms VSB lasts
#: up to ~1.5 s at the scenarios' workloads (measured on the seeded
#: runs; see docs/validation.md).
DEFAULT_SLACK_US: Micros = ms(1_500)


@dataclasses.dataclass(frozen=True, slots=True)
class MatchedLabel:
    """One ground-truth episode and how diagnosis did on it."""

    label: FaultLabel
    detected: bool
    #: The matched window's span (µs); ``None`` when undetected.
    window_start_us: Micros | None
    window_stop_us: Micros | None
    #: ``max(0, window_start - label_start)`` for the matched window.
    detection_latency_us: Micros | None
    #: Correct (kind, host) anywhere in the matched report's cause list.
    attributed: bool
    #: Correct (kind, host) ranked first in the matched report.
    attributed_primary: bool
    #: Index of the matched report in the scored list; ``None`` when
    #: undetected.
    report_index: int | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label.to_dict(),
            "detected": self.detected,
            "report_index": self.report_index,
            "window_start_us": self.window_start_us,
            "window_stop_us": self.window_stop_us,
            "detection_latency_us": self.detection_latency_us,
            "attributed": self.attributed,
            "attributed_primary": self.attributed_primary,
        }


@dataclasses.dataclass(slots=True)
class ValidationScore:
    """Accuracy of one diagnosis run against one fault schedule."""

    matches: list[MatchedLabel]
    reports_total: int
    reports_matched: int
    slack_us: Micros

    # -- aggregate figures ---------------------------------------------

    @property
    def labels_total(self) -> int:
        return len(self.matches)

    @property
    def labels_detected(self) -> int:
        return sum(1 for m in self.matches if m.detected)

    @property
    def recall(self) -> float:
        if not self.matches:
            return 1.0
        return self.labels_detected / len(self.matches)

    @property
    def precision(self) -> float:
        """1.0 on a run with no reports: no alarms, no false alarms."""
        if not self.reports_total:
            return 1.0
        return self.reports_matched / self.reports_total

    @property
    def attribution_accuracy(self) -> float:
        """Correctly attributed / detected (undetected scored by recall)."""
        detected = self.labels_detected
        if not detected:
            return 0.0
        return sum(1 for m in self.matches if m.attributed) / detected

    @property
    def primary_attribution_accuracy(self) -> float:
        detected = self.labels_detected
        if not detected:
            return 0.0
        return sum(1 for m in self.matches if m.attributed_primary) / detected

    @property
    def mean_detection_latency_us(self) -> float | None:
        latencies = [
            m.detection_latency_us
            for m in self.matches
            if m.detection_latency_us is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    # -- rendering -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-stable summary: no wall-clock, no filesystem paths."""
        return {
            "labels_total": self.labels_total,
            "labels_detected": self.labels_detected,
            "reports_total": self.reports_total,
            "reports_matched": self.reports_matched,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "attribution_accuracy": round(self.attribution_accuracy, 4),
            "primary_attribution_accuracy": round(
                self.primary_attribution_accuracy, 4
            ),
            "mean_detection_latency_us": self.mean_detection_latency_us,
            "slack_us": self.slack_us,
            "matches": [m.to_dict() for m in self.matches],
        }


def _report_attributes(
    report: DiagnosisReport, label: FaultLabel
) -> tuple[bool, bool]:
    """(cause anywhere in the ranked list, cause ranked first).

    The cause's :attr:`~repro.ntier.faults.Fault.evidence_kinds` are
    the resource-metric kinds that count; a cause outside the
    catalogue has none, so it always scores as unattributed.
    """
    fault = FAULTS.get(label.cause)
    expected = fault.evidence_kinds if fault is not None else ()
    anywhere = any(
        cause.kind in expected and cause.hostname == label.hostname
        for cause in report.causes
    )
    primary = report.primary_cause()
    first = (
        primary is not None
        and primary.kind in expected
        and primary.hostname == label.hostname
    )
    return anywhere, first


def _overlap_us(
    label: FaultLabel, report: DiagnosisReport, slack_us: Micros
) -> Micros:
    """Length of the report window's intersection with the label
    widened by ``slack_us`` on both sides."""
    return min(report.window.stop, label.stop_us + slack_us) - max(
        report.window.start, label.start_us - slack_us
    )


def score_reports(
    schedule: FaultSchedule,
    reports: list[DiagnosisReport],
    slack_us: Micros = DEFAULT_SLACK_US,
) -> ValidationScore:
    """Match diagnosed windows one-to-one against the labeled schedule."""
    labels = list(schedule)
    candidates = sorted(
        (
            -_overlap_us(label, report, slack_us),
            report.window.start,
            label_index,
            report_index,
        )
        for label_index, label in enumerate(labels)
        for report_index, report in enumerate(reports)
        if label.overlaps(report.window.start, report.window.stop, slack_us)
    )
    matched_reports = {report_index for *_, report_index in candidates}
    pairs: dict[int, int] = {}
    taken: set[int] = set()
    for *_, label_index, report_index in candidates:
        if label_index not in pairs and report_index not in taken:
            pairs[label_index] = report_index
            taken.add(report_index)

    matches: list[MatchedLabel] = []
    for label_index, label in enumerate(labels):
        report_index = pairs.get(label_index)
        if report_index is None:
            matches.append(
                MatchedLabel(
                    label=label,
                    detected=False,
                    window_start_us=None,
                    window_stop_us=None,
                    detection_latency_us=None,
                    attributed=False,
                    attributed_primary=False,
                )
            )
            continue
        report = reports[report_index]
        attributed, attributed_primary = _report_attributes(report, label)
        matches.append(
            MatchedLabel(
                label=label,
                detected=True,
                window_start_us=report.window.start,
                window_stop_us=report.window.stop,
                detection_latency_us=max(0, report.window.start - label.start_us),
                attributed=attributed,
                attributed_primary=attributed_primary,
                report_index=report_index,
            )
        )
    return ValidationScore(
        matches=matches,
        reports_total=len(reports),
        reports_matched=len(matched_reports),
        slack_us=slack_us,
    )
