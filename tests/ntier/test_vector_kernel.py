"""Scalar ≡ vector kernel equivalence at the system level.

The vector kernel's whole claim is *identity*, not similarity: same
seed, same workload → same traces, byte-identical native monitor logs,
and an ``iterdump``-identical warehouse.  These tests hold it to that
on small systems; the timeline pins in tests/sim/test_timeline_identity.py
hold every fault scenario's logs and agenda on both kernels.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.timebase import ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.ntier.system import KERNELS, NTierSystem, SystemConfig
from repro.ntier.vectorclient import VectorClientEmulator
from repro.rubbos.workload import WorkloadSpec
from repro.sim.vector import VectorEngine
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB


def _run_system(
    kernel: str,
    log_root: Path,
    workload: WorkloadSpec,
    seed: int,
    duration,
    monitors: bool = False,
):
    log_dir = log_root / kernel
    log_dir.mkdir(parents=True)
    config = SystemConfig(
        workload=workload, seed=seed, log_dir=log_dir, kernel=kernel
    )
    system = NTierSystem(config)
    if monitors:
        EventMonitorSuite().attach(system)
    result = system.run(duration)
    return system, result, log_dir


def _trace_tuples(result):
    return [
        (t.request_id, t.interaction, t.client_send, t.client_receive)
        for t in result.traces
    ]


def _log_bytes(log_dir: Path) -> dict:
    return {
        str(p.relative_to(log_dir)): p.read_bytes()
        for p in sorted(log_dir.rglob("*"))
        if p.is_file()
    }


class TestKernelIdentity:
    def test_traces_and_logs_identical(self, tmp_path):
        workload = WorkloadSpec(
            users=40, think_time_us=ms(150), ramp_up_us=ms(100)
        )
        _, scalar, scalar_dir = _run_system(
            "scalar", tmp_path, workload, seed=7, duration=seconds(2)
        )
        _, vector, vector_dir = _run_system(
            "vector", tmp_path, workload, seed=7, duration=seconds(2)
        )
        assert len(scalar.traces) > 50
        assert _trace_tuples(scalar) == _trace_tuples(vector)
        scalar_logs = _log_bytes(scalar_dir)
        vector_logs = _log_bytes(vector_dir)
        assert sorted(scalar_logs) == sorted(vector_logs)
        for name in scalar_logs:
            assert scalar_logs[name] == vector_logs[name], name

    def test_monitored_logs_identical(self, tmp_path):
        # Event monitors add per-event instrumentation cost; the vector
        # client must perturb nothing.
        workload = WorkloadSpec(
            users=25, think_time_us=ms(100), ramp_up_us=ms(50)
        )
        _, scalar, scalar_dir = _run_system(
            "scalar", tmp_path, workload, 11, seconds(1), monitors=True
        )
        _, vector, vector_dir = _run_system(
            "vector", tmp_path, workload, 11, seconds(1), monitors=True
        )
        assert _trace_tuples(scalar) == _trace_tuples(vector)
        assert _log_bytes(scalar_dir) == _log_bytes(vector_dir)

    def test_vector_uses_vector_machinery(self, tmp_path):
        workload = WorkloadSpec(users=5, think_time_us=ms(50), ramp_up_us=0)
        system, result, _ = _run_system(
            "vector", tmp_path, workload, seed=3, duration=seconds(1)
        )
        assert isinstance(system.engine, VectorEngine)
        assert isinstance(system.client, VectorClientEmulator)
        assert system.engine.kernel == "vector"
        assert len(result.traces) > 0

    def test_zero_ramp_and_zero_think(self, tmp_path):
        # Degenerate timers exercise the BOOT → issue-now fast edges.
        workload = WorkloadSpec(users=3, think_time_us=0, ramp_up_us=0)
        _, scalar, _ = _run_system(
            "scalar", tmp_path, workload, seed=5, duration=ms(50)
        )
        _, vector, _ = _run_system(
            "vector", tmp_path, workload, seed=5, duration=ms(50)
        )
        assert _trace_tuples(scalar) == _trace_tuples(vector)

    def test_markov_sessions_identical(self, tmp_path):
        workload = WorkloadSpec(
            users=12,
            think_time_us=ms(80),
            ramp_up_us=ms(40),
            session_model="markov",
        )
        _, scalar, _ = _run_system(
            "scalar", tmp_path, workload, seed=9, duration=seconds(1)
        )
        _, vector, _ = _run_system(
            "vector", tmp_path, workload, seed=9, duration=seconds(1)
        )
        assert len(scalar.traces) > 0
        assert _trace_tuples(scalar) == _trace_tuples(vector)

    def test_vector_client_requires_vector_engine(self):
        from repro.common.ids import RequestIdGenerator
        from repro.common.rng import RngStreams
        from repro.ntier.messages import NetworkBus
        from repro.sim.engine import Engine

        engine = Engine()
        with pytest.raises(TypeError):
            VectorClientEmulator(
                engine,
                NetworkBus(engine, latency_us=100),
                WorkloadSpec(users=1),
                RngStreams(1),
                RequestIdGenerator("0A"),
            )

    def test_unknown_kernel_rejected(self):
        config = SystemConfig(workload=WorkloadSpec(users=1), kernel="simd")
        with pytest.raises(ConfigError, match="kernel"):
            config.validate()
        assert KERNELS == ("scalar", "vector")


class TestKernelWarehouseProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        users=st.integers(min_value=1, max_value=15),
        think_ms=st.integers(min_value=0, max_value=120),
        ramp_ms=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_warehouse_dumps_identical(
        self, tmp_path_factory, users, think_ms, ramp_ms, seed
    ):
        """scalar ≡ vector all the way into the warehouse, for random
        small workloads and seeds."""
        root = tmp_path_factory.mktemp("kernelprop")
        workload = WorkloadSpec(
            users=users, think_time_us=ms(think_ms), ramp_up_us=ms(ramp_ms)
        )
        dumps = {}
        for kernel in KERNELS:
            _, result, log_dir = _run_system(
                kernel, root, workload, seed=seed, duration=ms(400),
                monitors=True,
            )
            with MScopeDB() as db:
                MScopeDataTransformer(db, jobs=1).transform_directory(log_dir)
                # Source paths differ per kernel by construction; the
                # content must not.
                dumps[kernel] = [
                    line.replace(str(log_dir), "<logs>")
                    for line in db.iterdump_content()
                ]
        assert dumps["scalar"] == dumps["vector"]
