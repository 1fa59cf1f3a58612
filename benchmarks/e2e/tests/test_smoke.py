"""The runner end to end, at the ``--smoke`` size (not comparable)."""

import json
import subprocess
import sys

import harness

RUN = [sys.executable, str(harness.HERE / "run.py"), "--smoke", "--seconds", "1"]


def _run(*extra: str) -> tuple[int, dict, str]:
    done = subprocess.run(
        RUN + list(extra), capture_output=True, text=True, timeout=120
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1]), done.stdout


def test_one_run_ends_in_the_contract_line():
    code, result, stdout = _run("--workload", "sim_closed_loop", "--seed", "3")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == harness.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "NOT COMPARABLE" in stdout


def test_an_injected_check_failure_fails_ops_and_the_exit_code():
    code, result, _ = _run(
        "--workload", "sim_closed_loop", "--seed", "3", "--inject-failure"
    )
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]


def test_the_traced_run_emits_every_per_layer_metric():
    code, result, _ = _run("--workload", "batch_report", "--seed", "3", "--trace", "1")
    assert code == 0 and result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == harness.PER_LAYER
    assert result["metrics"]["transformer.parse_s"]["value"] > 0
    assert result["metrics"]["serve.drain_s"]["value"] == 0
