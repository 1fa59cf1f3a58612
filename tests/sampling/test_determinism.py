"""Drain-order determinism: sampled parallel ingest is reproducible.

The pipeline fans parse/convert out over a process pool but applies
sampling at the single-writer import stage, draining in ``(host,
file)`` order — so for *every* policy (including the stateful tail
one) a ``jobs=N`` run must be iterdump-identical to
serial, sampling ledger included, and a sharded warehouse loaded the
same way must hold the sampled monolith's exact content.
"""

import pytest

from repro.common.records import BoundaryRecord
from repro.common.timebase import WallClock, ms
from repro.logfmt.mysql import format_mscope_query
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import ShardedMScopeDB

WALL = WallClock()

POLICIES = ["head:0.5", "tail:0.3:5"]


@pytest.fixture
def log_dir(tmp_path):
    """Three DB hosts with interleaved requests, two slow enough to
    cross the tail threshold."""
    root = tmp_path / "logs"
    for h, host in enumerate(("db1", "db2", "db3")):
        host_dir = root / host
        host_dir.mkdir(parents=True)
        lines = []
        for i in range(12):
            slow = h == 0 and i in (3, 7)
            boundary = BoundaryRecord(
                request_id=f"R{h}A{i:09d}",
                tier="mysql",
                node=host,
                upstream_arrival=ms(10 * (i + 1)),
                upstream_departure=ms(10 * (i + 1) + (8 if slow else 2)),
            )
            lines.append(format_mscope_query(WALL, boundary, f"SELECT {i}"))
        (host_dir / "mysql_log.log").write_text("\n".join(lines) + "\n")
    return root


@pytest.mark.parametrize("spec", POLICIES)
def test_parallel_monolith_is_iterdump_identical(log_dir, spec):
    serial = MScopeDB()
    MScopeDataTransformer(serial, sampling=spec).transform_directory(
        log_dir, jobs=1
    )
    parallel = MScopeDB()
    MScopeDataTransformer(parallel, sampling=spec).transform_directory(
        log_dir, jobs=4
    )
    assert list(parallel.iterdump()) == list(serial.iterdump())
    # The run really sampled something — the equality is not vacuous.
    assert serial.sampling_summary()["rows_kept"] < (
        serial.sampling_summary()["rows_seen"]
    )


@pytest.mark.parametrize("spec", [None, *POLICIES])
def test_parallel_sharded_matches_sampled_monolith(log_dir, tmp_path, spec):
    """Serial or fanned out, a sampled load into shards lands exactly
    the sampled monolith's content — rows, ``schema_catalog``,
    ``load_catalog``, ``monitor_registry`` and ``sampling_ledger`` —
    for every policy, host-only or time-windowed.  Time-windowed
    targets are what the ``window_reads`` benchmark's set-up
    builds."""
    mono = MScopeDB()
    MScopeDataTransformer(mono, sampling=spec).transform_directory(
        log_dir, jobs=1
    )
    expected = list(mono.iterdump_content())
    for window_us in (None, ms(40)):
        for jobs in (1, 4):
            shard = ShardedMScopeDB(
                tmp_path / f"w{window_us}-jobs{jobs}.shards",
                window_us=window_us,
            )
            MScopeDataTransformer(shard, sampling=spec).transform_directory(
                log_dir, jobs=jobs
            )
            assert list(shard.iterdump_content()) == expected
            assert shard.sampling_ledger() == mono.sampling_ledger()
            if window_us is not None:
                # The window really split each host's rows across shards.
                assert len(shard.shard_manifest()) > 3
            shard.close()
