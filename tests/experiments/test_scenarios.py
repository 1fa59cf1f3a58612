"""Tests for the scenario builders (reduced scale)."""

import pytest

from repro.common.timebase import ms, seconds
from repro.experiments.scenarios import (
    SCENARIOS,
    baseline_run,
    load_warehouse,
    scenario_a,
    scenario_b,
    scenario_tier_configs,
)


def test_tier_configs_are_small_pools():
    configs = scenario_tier_configs()
    assert set(configs) == {"apache", "tomcat", "cjdbc", "mysql"}
    assert configs["mysql"].workers < configs["apache"].workers


@pytest.fixture(scope="module")
def short_a(tmp_path_factory):
    return scenario_a(
        users=150,
        duration=seconds(3),
        flush_at=seconds(1),
        log_dir=tmp_path_factory.mktemp("short_a"),
    )


def test_scenario_a_attaches_everything(short_a):
    assert short_a.events is not None and short_a.events.attached
    assert short_a.resources is not None and short_a.resources.monitors
    assert short_a.sysviz is None  # off by default
    assert len(short_a.faults) == 1
    assert short_a.faults[0].flush_times == [seconds(1)]


def test_scenario_a_produces_traffic(short_a):
    assert len(short_a.result.traces) > 100
    assert short_a.result.mean_response_time_ms() > 0


def test_scenario_epoch_offset(short_a):
    # Simulation zero maps to the fixed 2017 epoch.
    assert short_a.epoch_us == 1_488_362_400_000_000


def test_load_warehouse_requires_log_dir():
    run = baseline_run(50, think_ms=300, duration=seconds(1))
    with pytest.raises(ValueError):
        load_warehouse(run)


def test_load_warehouse_records_metadata(short_a):
    db = load_warehouse(short_a)
    assert db.get_experiment_meta("workload_users") == "150"
    assert db.get_experiment_meta("epoch_us") == str(short_a.epoch_us)
    assert len(db.query("SELECT * FROM host_config")) == 4


def test_scenario_b_has_two_faults(tmp_path):
    run = scenario_b(users=100, duration=seconds(2))
    assert len(run.faults) == 2
    tiers = {fault.tier for fault in run.faults}
    assert tiers == {"apache", "tomcat"}


def test_baseline_run_monitors_toggle():
    on = baseline_run(50, think_ms=300, duration=seconds(1), monitors_enabled=True)
    off = baseline_run(50, think_ms=300, duration=seconds(1), monitors_enabled=False)
    assert on.events is not None
    assert off.events is None


def test_baseline_run_sysviz_toggle():
    run = baseline_run(
        50, think_ms=300, duration=seconds(1), with_sysviz=True
    )
    assert run.sysviz is not None
    assert len(run.sysviz) > 0


def test_same_seed_scenarios_reproducible():
    a = scenario_a(users=100, duration=seconds(2), flush_at=seconds(1))
    b = scenario_a(users=100, duration=seconds(2), flush_at=seconds(1))
    assert len(a.result.traces) == len(b.result.traces)
    assert a.result.mean_response_time_ms() == b.result.mean_response_time_ms()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registry_row_installs_its_faults(name):
    """Every row — nightly-only ones included — builds on its tier
    overrides and installs its injectors (an unknown tier fails at
    install) in a 0.3 s run on a tiny client pool."""
    from repro.ntier.faults import FAULTS
    from repro.ntier.system import NTierSystem, SystemConfig
    from repro.rubbos.workload import WorkloadSpec

    row = SCENARIOS[name]
    assert set(row.floors) == {"precision", "recall", "attribution"}
    faults = row.faults()
    assert faults and all(FAULTS[f.name] is type(f) for f in faults)
    config = SystemConfig(
        workload=WorkloadSpec(
            users=10, think_time_us=ms(300), ramp_up_us=ms(100),
            mix_name=row.mix,
        ),
        seed=1,
        tiers={**scenario_tier_configs(), **row.tiers},
    )
    NTierSystem(config, faults=faults).run(ms(300))
    assert all(isinstance(fault.windows, list) for fault in faults)
