"""Unit: FaultSchedule extraction, slack overlap, and persistence."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.ntier.faults import DBLogFlushFault, Fault, GarbageCollectionFault
from repro.validation.schedule import FaultLabel, FaultSchedule


class _Node:
    def __init__(self, name):
        self.name = name


class _System:
    """node_for_tier stub: tier 'mysql' lives on 'db1', etc."""

    _hosts = {"mysql": "db1", "tomcat": "app1", "apache": "web1"}

    def node_for_tier(self, tier):
        return _Node(self._hosts[tier])


def _flush_fault(windows):
    fault = DBLogFlushFault(start_at=seconds(1), period=seconds(5))
    fault.flush_windows = list(windows)
    return fault


def test_labels_extracted_from_recorded_windows():
    fault = _flush_fault([(seconds(1), seconds(1) + ms(300))])
    schedule = FaultSchedule.from_faults(_System(), [fault])
    assert len(schedule) == 1
    label = schedule.labels[0]
    assert label.cause == "db_log_flush"
    assert label.tier == "mysql"
    assert label.hostname == "db1"
    assert label.resource == "disk"
    assert label.start_us == seconds(1)
    assert label.duration_us == ms(300)


def test_labels_sorted_across_faults():
    late = _flush_fault([(seconds(3), seconds(3) + ms(100))])
    gc = GarbageCollectionFault(
        tier="tomcat", start_at=seconds(1), period=seconds(5)
    )
    gc.pause_windows = [(seconds(1), seconds(1) + ms(200))]
    schedule = FaultSchedule.from_faults(_System(), [late, gc])
    assert [label.cause for label in schedule] == ["jvm_gc", "db_log_flush"]


def test_unknown_fault_raises():
    class MysteryFault(Fault):
        name = "mystery"
        tier = "mysql"

    with pytest.raises(ConfigError, match="mystery"):
        FaultSchedule.from_faults(_System(), [MysteryFault()])


def test_overlap_slack():
    label = FaultLabel(
        cause="db_log_flush",
        tier="mysql",
        hostname="db1",
        resource="disk",
        start_us=seconds(2),
        stop_us=seconds(2) + ms(300),
    )
    # Direct intersection.
    assert label.overlaps(seconds(2) + ms(100), seconds(3))
    # Window trailing the episode: only within slack.
    assert not label.overlaps(seconds(3), seconds(4))
    assert label.overlaps(seconds(3), seconds(4), slack_us=ms(800))
    # Window fully before the episode.
    assert not label.overlaps(0, seconds(1))
    assert label.overlaps(0, seconds(1), slack_us=seconds(1))


def test_json_round_trip(tmp_path):
    fault = _flush_fault(
        [(seconds(1), seconds(1) + ms(300)), (seconds(4), seconds(4) + ms(250))]
    )
    schedule = FaultSchedule.from_faults(_System(), [fault])
    path = tmp_path / "fault_schedule.json"
    schedule.save(path)
    loaded = FaultSchedule.load(path)
    assert loaded.labels == schedule.labels
    # Serialization is stable: saving the loaded schedule is a no-op.
    assert loaded.to_json() == schedule.to_json()


def _label(start_us, stop_us):
    return FaultLabel(
        cause="retry_storm",
        tier="tomcat",
        hostname="app1",
        resource="cpu",
        start_us=start_us,
        stop_us=stop_us,
    )


def test_overlap_boundary_touching_counts_at_zero_slack():
    """An episode ending exactly where the window starts (and vice
    versa) still matches with no slack: the intervals are closed."""
    label = _label(seconds(2), seconds(2) + ms(300))
    # Window starts at the episode's last microsecond.
    assert label.overlaps(seconds(2) + ms(300), seconds(3), slack_us=0)
    # Window ends at the episode's first microsecond.
    assert label.overlaps(seconds(1), seconds(2), slack_us=0)
    # One microsecond past either edge no longer touches.
    assert not label.overlaps(seconds(2) + ms(300) + 1, seconds(3), slack_us=0)
    assert not label.overlaps(seconds(1), seconds(2) - 1, slack_us=0)


def test_overlap_boundary_edge_plus_slack_is_inclusive():
    label = _label(seconds(2), seconds(2) + ms(300))
    # Exactly slack_us past the episode's stop: still a match...
    assert label.overlaps(
        seconds(2) + ms(300) + ms(50), seconds(3), slack_us=ms(50)
    )
    # ...one microsecond further: a miss.
    assert not label.overlaps(
        seconds(2) + ms(300) + ms(50) + 1, seconds(3), slack_us=ms(50)
    )


def test_zero_length_episode_at_window_edge():
    """An episode recorded with start == stop (an instantaneous burst
    landing exactly on a window edge) still scores as overlapping."""
    label = _label(seconds(2), seconds(2))
    assert label.duration_us == 0
    assert label.overlaps(seconds(2), seconds(3), slack_us=0)
    assert label.overlaps(seconds(1), seconds(2), slack_us=0)
    assert not label.overlaps(seconds(2) + 1, seconds(3), slack_us=0)


def test_catalogue_faults_all_have_window_mappings():
    """Every injector in the catalogue declares the resource it
    saturates, the evidence kinds that attribute it, and a window list
    — a fault that cannot be labeled cannot be scored."""
    import inspect

    from repro.ntier.faults import FAULTS

    required = {"tier": "mysql", "start_at": 0, "period": ms(100)}
    assert len(FAULTS) == 11
    for name, cls in FAULTS.items():
        assert cls.name == name
        assert cls.resource in ("cpu", "disk"), name
        assert cls.evidence_kinds, name
        params = inspect.signature(cls).parameters
        fault = cls(**{k: v for k, v in required.items() if k in params})
        assert fault.windows == [], name
        assert fault.windows is getattr(fault, cls.windows_attr)


def test_episodic_fault_windows_extract_at_run_edges():
    """Episodes recorded flush against t=0 and the run end label
    cleanly (no off-by-one at the schedule boundary)."""
    from repro.ntier.faults import RetryStormFault

    fault = RetryStormFault(start_at=0)
    fault.storm_windows = [(0, ms(400)), (seconds(2), seconds(2) + ms(400))]

    class _AppSystem(_System):
        _hosts = {"tomcat": "app1"}

    schedule = FaultSchedule.from_faults(_AppSystem(), [fault])
    assert [label.start_us for label in schedule] == [0, seconds(2)]
    assert schedule.labels[0].duration_us == ms(400)
    assert all(label.hostname == "app1" for label in schedule)
