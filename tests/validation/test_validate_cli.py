"""The ``mscope validate`` subcommand."""

import dataclasses
import json

from repro.cli import main


def test_validate_text_report(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario db_log_flush (seed 7, mode batch)" in out
    assert "precision" in out and "recall" in out
    assert "detected, attributed" in out


def test_validate_json_reports_meet_acceptance_floors(tmp_path, capsys):
    """The acceptance criterion: precision and recall >= 0.9 at seed 7,
    and the JSON report is identical across two consecutive runs."""
    renders = []
    for attempt in range(2):
        json_path = tmp_path / f"report{attempt}.json"
        code = main(
            [
                "validate",
                "--scenario",
                "db_log_flush",
                "--seed",
                "7",
                "--format",
                "json",
                "--json",
                str(json_path),
                "--check-floors",
            ]
        )
        assert code == 0
        capsys.readouterr()
        renders.append(json_path.read_text())
    assert renders[0] == renders[1]
    payload = json.loads(renders[0])
    (scenario,) = payload["scenarios"]
    assert scenario["score"]["precision"] >= 0.9
    assert scenario["score"]["recall"] >= 0.9
    assert payload["failures"] == []


def test_validate_check_floors_fails_on_unmet_floor(tmp_path, capsys, monkeypatch):
    import repro.validation.runner as runner_module

    spec = runner_module.SCENARIOS["db_log_flush"]
    impossible = {**spec.floors, "precision": 1.1}
    monkeypatch.setitem(
        runner_module.SCENARIOS,
        "db_log_flush",
        dataclasses.replace(spec, floors=impossible),
    )
    code = main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--check-floors",
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "precision" in out


def test_validate_workdir_keeps_artifacts(tmp_path, capsys):
    workdir = tmp_path / "kept"
    main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--workdir",
            str(workdir),
        ]
    )
    capsys.readouterr()
    rundir = workdir / "db_log_flush-seed7"
    assert (rundir / "fault_schedule.json").exists()
    assert (rundir / "batch" / "mscope.db").exists()
    assert (rundir / "logs").is_dir()


def test_validate_sampling_pinned_check_floors_fails_on_unmet_floor(
    tmp_path, capsys, monkeypatch
):
    """The pinned sampling point is held to FRONTIER_FLOORS by the same
    --check-floors path as an unsampled build."""
    from repro.sampling.frontier import FRONTIER_FLOORS, PINNED_POLICY

    monkeypatch.setitem(FRONTIER_FLOORS, "byte_reduction", 1e9)
    code = main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--sampling",
            "pinned",
            "--check-floors",
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert f"sampling {PINNED_POLICY}" in out
    assert f"FAIL: db_log_flush [{PINNED_POLICY}]: byte_reduction" in out


def test_validate_rejects_a_bad_sampling_spec(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--sampling",
            "head:0.5,bogus",
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    assert code == 2
    assert "bad --sampling" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()
