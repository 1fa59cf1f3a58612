"""JSON scenario configuration files.

Lets the ``mscope run --config`` CLI (and downstream users) describe a
complete experiment — workload, tier sizing, replicas, and fault
injections — declaratively:

.. code-block:: json

    {
      "seed": 3,
      "duration_s": 5,
      "workload": {"users": 300, "think_time_ms": 700,
                   "session_model": "markov"},
      "tiers": {"apache": {"workers": 60},
                "mysql": {"workers": 16, "replicas": 2}},
      "faults": [{"type": "db_log_flush", "start_at_ms": 2000,
                  "period_ms": 10000, "flush_mb": 30, "bursts": 1}]
    }
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import ConfigError
from repro.common.timebase import Micros, ms, seconds
from repro.ntier.faults import (
    DBLogFlushFault,
    DirtyPageFlushFault,
    DvfsSlowdownFault,
    Fault,
    GarbageCollectionFault,
    VmConsolidationFault,
)
from repro.ntier.system import SystemConfig, TierConfig, default_tier_configs
from repro.rubbos.workload import WorkloadSpec

__all__ = ["ScenarioSpec", "load_scenario_file", "build_fault"]

MB = 1024 * 1024


@dataclasses.dataclass(slots=True)
class ScenarioSpec:
    """Everything a config file describes."""

    system_config: SystemConfig
    faults: list[Fault]
    duration: Micros


def _build_db_log_flush(spec: dict[str, Any]) -> Fault:
    return DBLogFlushFault(
        start_at=ms(spec.get("start_at_ms", 2_000)),
        period=ms(spec.get("period_ms", 10_000)),
        flush_bytes=int(spec.get("flush_mb", 30) * MB),
        bursts=spec.get("bursts"),
        tier=spec.get("tier", "mysql"),
    )


def _build_dirty_page(spec: dict[str, Any]) -> Fault:
    return DirtyPageFlushFault(
        tier=spec.get("tier", "apache"),
        threshold_bytes=int(spec.get("threshold_mb", 40) * MB),
        low_watermark_bytes=int(spec.get("low_watermark_mb", 12) * MB),
        dirty_rate_bytes_per_sec=int(spec.get("dirty_rate_mb_per_s", 8) * MB),
        initial_dirty_bytes=int(spec.get("initial_dirty_mb", 0) * MB),
    )


def _build_gc(spec: dict[str, Any]) -> Fault:
    return GarbageCollectionFault(
        tier=spec.get("tier", "tomcat"),
        start_at=ms(spec.get("start_at_ms", 1_000)),
        period=ms(spec.get("period_ms", 10_000)),
        pause=ms(spec.get("pause_ms", 250)),
        collections=spec.get("collections"),
    )


def _build_vm(spec: dict[str, Any]) -> Fault:
    return VmConsolidationFault(
        tier=spec.get("tier", "mysql"),
        start_at=ms(spec.get("start_at_ms", 1_000)),
        period=ms(spec.get("period_ms", 10_000)),
        burst=ms(spec.get("burst_ms", 300)),
        stolen_cores=spec.get("stolen_cores", 0),
        episodes=spec.get("episodes"),
    )


def _build_dvfs(spec: dict[str, Any]) -> Fault:
    return DvfsSlowdownFault(
        tier=spec.get("tier", "apache"),
        start_at=ms(spec.get("start_at_ms", 1_000)),
        period=ms(spec.get("period_ms", 10_000)),
        slow_duration=ms(spec.get("slow_duration_ms", 400)),
        speed_factor=spec.get("speed_factor", 0.25),
        episodes=spec.get("episodes"),
    )


_FAULT_BUILDERS: dict[str, Callable[[dict[str, Any]], Fault]] = {
    "db_log_flush": _build_db_log_flush,
    "dirty_page_flush": _build_dirty_page,
    "jvm_gc": _build_gc,
    "vm_consolidation": _build_vm,
    "dvfs_slowdown": _build_dvfs,
}


def build_fault(spec: dict[str, Any]) -> Fault:
    """Instantiate one fault from its JSON description."""
    kind = spec.get("type")
    builder = _FAULT_BUILDERS.get(kind)
    if builder is None:
        raise ConfigError(
            f"unknown fault type {kind!r}; "
            f"known: {sorted(_FAULT_BUILDERS)}"
        )
    return builder(spec)


def load_scenario_file(path: Path | str) -> ScenarioSpec:
    """Parse a scenario JSON file into a ready-to-run spec."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a JSON object")

    workload_raw = raw.get("workload", {})
    workload = WorkloadSpec(
        users=int(workload_raw.get("users", 300)),
        think_time_us=ms(workload_raw.get("think_time_ms", 700)),
        ramp_up_us=ms(workload_raw.get("ramp_up_ms", 300)),
        mix_name=workload_raw.get("mix", "read_write"),
        session_model=workload_raw.get("session_model", "weighted"),
    )

    tiers = default_tier_configs()
    for tier, tier_raw in raw.get("tiers", {}).items():
        if tier not in tiers:
            raise ConfigError(f"unknown tier {tier!r} in scenario file")
        tiers[tier] = TierConfig(
            workers=int(tier_raw.get("workers", tiers[tier].workers)),
            replicas=int(tier_raw.get("replicas", 1)),
        )

    config = SystemConfig(
        workload=workload,
        seed=int(raw.get("seed", 1)),
        tiers=tiers,
    )
    faults = [build_fault(spec) for spec in raw.get("faults", [])]
    duration = seconds(float(raw.get("duration_s", 5)))
    return ScenarioSpec(system_config=config, faults=faults, duration=duration)
