"""Tests for the stepped-run API (start_workload / advance / finish)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.ntier.system import NTierSystem, SystemConfig
from repro.rubbos.workload import WorkloadSpec


def small_config(seed=2, **kwargs):
    defaults = dict(
        workload=WorkloadSpec(users=30, think_time_us=ms(300), ramp_up_us=ms(100)),
        seed=seed,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def test_stepped_equals_single_run():
    whole = NTierSystem(small_config()).run(seconds(2))

    stepped_system = NTierSystem(small_config())
    stepped_system.start_workload()
    for checkpoint in (ms(400), ms(900), ms(1500), seconds(2)):
        stepped_system.advance(checkpoint)
    stepped = stepped_system.finish()

    assert len(stepped.traces) == len(whole.traces)
    assert [t.request_id for t in stepped.traces] == [
        t.request_id for t in whole.traces
    ]
    assert stepped.duration == whole.duration


def test_advance_requires_start():
    system = NTierSystem(small_config())
    with pytest.raises(ConfigError):
        system.advance(ms(100))


def test_finish_requires_start():
    system = NTierSystem(small_config())
    with pytest.raises(ConfigError):
        system.finish()


def test_double_finish_rejected():
    system = NTierSystem(small_config())
    system.start_workload()
    system.advance(ms(200))
    system.finish()
    with pytest.raises(ConfigError):
        system.finish()
    with pytest.raises(ConfigError):
        system.advance(ms(300))


def test_traces_accumulate_between_steps():
    system = NTierSystem(small_config())
    system.start_workload()
    system.advance(seconds(1))
    midway = len(system.client.collector.traces)
    system.advance(seconds(2))
    assert len(system.client.collector.traces) > midway
    system.finish()


def test_live_logs_visible_mid_run(tmp_path):
    system = NTierSystem(small_config(log_dir=tmp_path / "logs"))
    system.start_workload()
    system.advance(seconds(1))
    access = tmp_path / "logs" / "web1" / "access_log.log"
    # Line-buffered sink: lines are on disk before finish().
    assert access.exists()
    first_count = len(access.read_text().splitlines())
    assert first_count > 0
    system.advance(seconds(2))
    assert len(access.read_text().splitlines()) > first_count
    system.finish()
