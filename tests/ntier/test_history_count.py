"""The simulator keeps a history only where something reads one.

A :class:`StepSeries` or :class:`CumulativeCounter` keeps every change
since t = 0, so each one grows with simulated time.  The histories a
run keeps are the ones the monitors, the analysis or the tests read:
CPU time per category, disk occupancy, queue and counters, worker
occupancy and queue, and server concurrency.  Everything else (the
dirty level, log totals, server counts, a message store's length) is a
current value.  This test pins how many histories one second of
scenario A keeps and how many entries they hold, so a new write-only
history fails here rather than as a slow rise in memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Counts every history alive at the end of the run, in a fresh
#: interpreter, so no other test's objects are counted.
_COUNT = """
import gc, json, tempfile
from pathlib import Path

from repro.common.timebase import seconds
from repro.experiments.scenarios import scenario_a
from repro.ntier.hardware import CumulativeCounter
from repro.sim.tracking import StepSeries

with tempfile.TemporaryDirectory() as logs:
    run = scenario_a(seed=7, duration=seconds(1), log_dir=Path(logs))
    histories = [
        o for o in gc.get_objects()
        if isinstance(o, (StepSeries, CumulativeCounter))
    ]
    print(json.dumps([len(histories), sum(len(o._times) for o in histories)]))
"""

#: Scenario A, seed 7, 1 simulated second: (histories, entries).
PINNED = (52, 19_253)


def test_scenario_a_keeps_only_the_pinned_histories():
    result = subprocess.run(
        [sys.executable, "-c", _COUNT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert tuple(json.loads(result.stdout.splitlines()[-1])) == PINNED
