"""Labeled ground-truth fault schedules.

The ``ntier`` fault injectors already record when each injected episode
ran, in the window list each declares as ``windows_attr``
(:class:`~repro.ntier.faults.DBLogFlushFault` its ``flush_windows``,
and so on), next to the ``resource`` an episode saturates.  This
module turns those per-injector window lists into a uniform,
serializable schedule of :class:`FaultLabel` intervals that scoring can
match diagnosis output against, and that can be written next to the
simulator's native logs so a warehouse and its ground truth travel
together.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import ConfigError
from repro.common.timebase import Micros

if TYPE_CHECKING:
    from repro.ntier.faults import Fault
    from repro.ntier.system import NTierSystem

__all__ = ["FaultLabel", "FaultSchedule"]


@dataclasses.dataclass(frozen=True, slots=True)
class FaultLabel:
    """One injected VSB episode, as ground truth for diagnosis.

    Times are simulation µs (epoch-rebased warehouse time), matching
    the :class:`~repro.analysis.anomaly.AnomalyWindow` timebase.
    """

    cause: str
    tier: str
    hostname: str
    resource: str
    start_us: Micros
    stop_us: Micros

    @property
    def duration_us(self) -> Micros:
        return self.stop_us - self.start_us

    def overlaps(self, start: Micros, stop: Micros, slack_us: Micros = 0) -> bool:
        """Whether ``[start, stop]`` intersects this episode ± slack.

        ``slack_us`` absorbs the detection physics: queues drain *after*
        the bottleneck lifts, so diagnosed windows legitimately trail
        the injected interval by the queue-drain time.
        """
        return start <= self.stop_us + slack_us and stop >= self.start_us - slack_us

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(slots=True)
class FaultSchedule:
    """Every labeled episode injected during one scenario run."""

    labels: list[FaultLabel]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_faults(
        cls, system: "NTierSystem", faults: "Iterable[Fault]"
    ) -> "FaultSchedule":
        """Extract the labels a finished run's injectors recorded.

        Must be called *after* ``system.run(...)`` — the window lists
        fill in as episodes complete.  An injector that declares no
        ``windows_attr`` is a programming error, not data to skip.
        """
        labels: list[FaultLabel] = []
        for fault in faults:
            if not fault.windows_attr:
                raise ConfigError(
                    f"fault {fault.name!r} declares no windows_attr, so "
                    f"its episodes cannot be labeled"
                )
            tier = getattr(fault, "tier")
            hostname = system.node_for_tier(tier).name
            for start, stop in fault.windows:
                labels.append(
                    FaultLabel(
                        cause=fault.name,
                        tier=tier,
                        hostname=hostname,
                        resource=fault.resource,
                        start_us=start,
                        stop_us=stop,
                    )
                )
        labels.sort(key=lambda label: (label.start_us, label.hostname))
        return cls(labels=labels)

    # -- persistence ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"labels": [label.to_dict() for label in self.labels]},
            indent=2,
            sort_keys=True,
        )

    def save(self, path: Path) -> None:
        """Write the schedule next to the run's native logs."""
        path.write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "FaultSchedule":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            labels=[FaultLabel(**entry) for entry in payload["labels"]]
        )
