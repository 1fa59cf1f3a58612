"""Tests for JSON scenario configuration files."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.experiments.configfile import build_fault, load_scenario_file
from repro.ntier.faults import (
    DBLogFlushFault,
    GarbageCollectionFault,
    VmConsolidationFault,
)


def write_config(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


def test_minimal_config_defaults(tmp_path):
    spec = load_scenario_file(write_config(tmp_path, {}))
    assert spec.system_config.workload.users == 300
    assert spec.duration == 5_000_000
    assert spec.faults == []


def test_full_config(tmp_path):
    payload = {
        "seed": 42,
        "duration_s": 3.5,
        "workload": {
            "users": 500,
            "think_time_ms": 900,
            "session_model": "markov",
        },
        "tiers": {"mysql": {"workers": 12, "replicas": 2}},
        "faults": [
            {"type": "db_log_flush", "start_at_ms": 1500, "flush_mb": 20,
             "bursts": 1},
            {"type": "jvm_gc", "tier": "tomcat", "pause_ms": 200},
        ],
    }
    spec = load_scenario_file(write_config(tmp_path, payload))
    assert spec.system_config.seed == 42
    assert spec.duration == 3_500_000
    assert spec.system_config.workload.session_model == "markov"
    assert spec.system_config.tiers["mysql"].replicas == 2
    assert isinstance(spec.faults[0], DBLogFlushFault)
    assert spec.faults[0].flush_bytes == 20 * 1024 * 1024
    assert isinstance(spec.faults[1], GarbageCollectionFault)


def test_unknown_fault_type_rejected():
    with pytest.raises(ConfigError):
        build_fault({"type": "cosmic_rays"})


def test_all_fault_types_buildable():
    for kind in (
        "db_log_flush",
        "dirty_page_flush",
        "jvm_gc",
        "vm_consolidation",
        "dvfs_slowdown",
    ):
        fault = build_fault({"type": kind})
        assert fault.name != "fault"


def test_vm_fault_parameters():
    fault = build_fault(
        {"type": "vm_consolidation", "tier": "cjdbc", "burst_ms": 150,
         "stolen_cores": 2}
    )
    assert isinstance(fault, VmConsolidationFault)
    assert fault.tier == "cjdbc"
    assert fault.burst == 150_000
    assert fault.stolen_cores == 2


@pytest.mark.parametrize(
    "fault",
    [
        {"type": "db_log_flush", "bursts": "2"},
        {"type": "jvm_gc", "collections": 0},
        {"type": "dvfs_slowdown", "episodes": True},
        {"type": "vm_consolidation", "stolen_cores": "2"},
    ],
)
def test_malformed_fault_counts_exit_2_before_running(tmp_path, capsys, fault):
    """A bad count is a config error reported up front, not a
    TypeError traceback from inside the simulation."""
    from repro.cli import main

    config_path = write_config(tmp_path, {"faults": [fault]})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert "bad --config" in capsys.readouterr().err
    assert not (out / "logs").exists()


def test_unknown_tier_rejected(tmp_path):
    payload = {"tiers": {"varnish": {"workers": 10}}}
    with pytest.raises(ConfigError):
        load_scenario_file(write_config(tmp_path, payload))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario_file(path)


def test_non_object_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_scenario_file(path)


def test_config_runs_end_to_end(tmp_path):
    """A config-driven run through the CLI produces logs and diagnoses."""
    from repro.cli import main

    payload = {
        "seed": 3,
        "duration_s": 4,
        "workload": {"users": 250, "think_time_ms": 700},
        "tiers": {
            "apache": {"workers": 60},
            "tomcat": {"workers": 24},
            "cjdbc": {"workers": 24},
            "mysql": {"workers": 16},
        },
        "faults": [
            {"type": "db_log_flush", "start_at_ms": 2000, "flush_mb": 30,
             "bursts": 1}
        ],
    }
    config_path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    db_path = out / "m.db"
    assert main(["transform", "--logs", str(out / "logs"), "--db", str(db_path)]) == 0
    assert main(["diagnose", "--db", str(db_path)]) == 0
    report_path = out / "report.md"
    assert main(["report", "--db", str(db_path), "--out", str(report_path)]) == 0
    text = report_path.read_text()
    assert "disk on db1 saturated" in text
