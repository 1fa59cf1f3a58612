"""The simulated timeline, pinned to the byte.

The kernel's contract is that a configuration and a seed fix the
agenda: the same entries, allocated sequence numbers in the same order,
hence the same log bytes.  A kernel optimisation may change how many
generator resumes a run costs, never which events it schedules or in
what order.  These pins catch any drift.

For every :data:`~repro.experiments.scenarios.SCENARIOS` row and seed
the table holds:

* the sha256 over every native log file plus ``fault_schedule.json``
  (each file contributes its relative path, a NUL byte and its bytes,
  in sorted path order);
* the agenda entries the run allocated (``engine._sequence``);
* the requests it completed, so agenda entries per completed request
  is pinned too.

Tier-1 runs the ``fast`` rows at seed 7; the full grid at seeds 7 and
11 carries the ``nightly`` marker (``pytest -m nightly``).  A change
that moves a pin on purpose re-baselines every golden, dump and floor,
and must say so.
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments.scenarios import SCENARIOS, run_scenario
from repro.validation.runner import SCHEDULE_FILE
from repro.validation.schedule import FaultSchedule

#: (row, seed) -> (sha256 of logs + schedule, agenda entries, completed).
PINNED = {
    ("db_log_flush", 7): (
        "89140d778a9fc291676aefb7e278c207253fba06659aa92ecf9f0fa2e6c09ac6",
        210977,
        2051,
    ),
    ("dirty_page_flush", 7): (
        "6e487bf14c48318b655c27c852fdd65587beb5624cfd52e09e1edd38cf5ffafd",
        208094,
        1996,
    ),
    ("jvm_gc", 7): (
        "8d400ece059040815ccf83a59a58e15bbdb5b589d668bfeeab530fa66285fc0a",
        208492,
        2009,
    ),
    ("dvfs_slowdown", 7): (
        "f7a03dc1b92a19661a6bdaaed87a43237755cfee0dfa673e90c564f87b6c18d1",
        204916,
        1986,
    ),
    ("vm_consolidation", 7): (
        "4f26f2d22eed87be3392fabe387a8f94a54784c91613386f955dbfe359414000",
        208492,
        2009,
    ),
    ("retry_storm", 7): (
        "a1fd6b85d54a2ef72219239927955cfcd56d819b7f4084f1b25bd40bbb005d95",
        208492,
        2009,
    ),
    ("pool_exhaustion", 7): (
        "ae153c6a1bb4858f90f07a162bd1a70d0d610011472826e8eb223a553eef9725",
        211051,
        2039,
    ),
    ("lock_convoy", 7): (
        "dc4308df334894971750b686380e1334a050bc5626f71d8fede363bce8af1cd9",
        208557,
        2009,
    ),
    ("cache_stampede", 7): (
        "f608edf1297edca357a4ed0ff417054e8eb7b7e0a940fc26668300dd37a0e852",
        227095,
        2031,
    ),
    ("net_jitter", 7): (
        "b57f96a4defbe5b7cbb342898ad1462536902488e5398b2cf54e6f800f88fa31",
        209035,
        2015,
    ),
    ("memory_leak", 7): (
        "9b5ea81ac5f63a7cf1c21b490e18f557ab0b4460c7b2f03cbadc7bf27744e008",
        187000,
        1791,
    ),
    ("db_log_flush", 11): (
        "2f2fb808f2df57a385ce1b4034e5d31b5bab6eca3a28b58d3347b42c8e426471",
        218049,
        2114,
    ),
    ("dirty_page_flush", 11): (
        "3b12bf93be006af8bb18a5dad77ee9ac71694d6b458a179a5a6de68c2c57bfa5",
        214354,
        2056,
    ),
    ("jvm_gc", 11): (
        "e1a39ac1aa50f99d727a78e4f06f4399b45417569c45b2557e0b93fab92f780d",
        216072,
        2079,
    ),
    ("dvfs_slowdown", 11): (
        "71a423bed9ef7f97e6bf3e786588af28d6f48eae915240b24cef49f9ace49e49",
        213117,
        2067,
    ),
    ("vm_consolidation", 11): (
        "3b13ecf70ff6b59e3faec21c393e3c18ce89a6801991b1717a2f91079900c6ca",
        216072,
        2079,
    ),
    ("retry_storm", 11): (
        "f5ffc260b801865a1afd17f6d6e050c087fc9f904130f1e4f16ed223ed8cf976",
        216072,
        2079,
    ),
    ("pool_exhaustion", 11): (
        "f36c6d4e1398d64824c481564bc80b49eed6b9639f1581f550d57f04df080eb1",
        219246,
        2113,
    ),
    ("lock_convoy", 11): (
        "d24dd4f61f7ffefe77587ec5619c6b6d260769b241426aecdf9e1f5fa7bef453",
        216283,
        2081,
    ),
    ("cache_stampede", 11): (
        "93ca5781945a6387d730a0e56213ca7ea8ac958867531a89cb321eb27a146695",
        235517,
        2103,
    ),
    ("net_jitter", 11): (
        "f39d276056749ceb17c3c1beb208fd83967899dc51cf21295ae8bd13a66eb371",
        216822,
        2089,
    ),
    ("memory_leak", 11): (
        "b7f9cdf5926a2a66baa7564fb3fc29ec1a755d3d33e5d9a3e32d014796f4a89a",
        195834,
        1869,
    ),
}

#: The one seed tier-1 pins (matches the gating validation job).
TIER1_SEED = 7


def _grid():
    for (name, seed) in PINNED:
        tier1 = seed == TIER1_SEED and name in SCENARIOS and SCENARIOS[name].fast
        marks = () if tier1 else (pytest.mark.nightly,)
        yield pytest.param(name, seed, marks=marks, id=f"{name}-{seed}")


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, NUL, bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_every_scenario_row_is_pinned():
    pinned_rows = {name for name, _seed in PINNED}
    assert pinned_rows == set(SCENARIOS)
    assert {seed for _name, seed in PINNED} == {7, 11}


@pytest.mark.parametrize(("name", "seed"), list(_grid()))
def test_timeline_identity(name, seed, tmp_path):
    run = run_scenario(name, seed, tmp_path / "logs")
    FaultSchedule.from_faults(run.system, run.faults).save(
        tmp_path / SCHEDULE_FILE
    )
    digest, entries, completed = PINNED[(name, seed)]
    assert len(run.result.traces) == completed
    assert run.system.engine._sequence == entries
    assert tree_digest(tmp_path) == digest
