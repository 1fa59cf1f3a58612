"""Re-running a (scenario, seed, mode) must never re-ingest.

``mscope validate --conformance`` requests the batch mode twice
through one runner — once for the score table, once as every
conformance pair's baseline.  A naive second build would append the
same logs into the existing warehouse and silently double every table
(the bug showed up as exactly-2x VLRT counts in every conformance
divergence).
"""

GATING_SEED = 7  # matches conftest.GATING_SEED


def test_rerequesting_a_mode_reuses_the_outcome(
    validation_runner, db_log_flush_outcome
):
    again = validation_runner.run("db_log_flush", GATING_SEED, "batch")
    assert again is db_log_flush_outcome


def test_fresh_runner_over_a_used_workdir_rebuilds_cleanly(
    validation_runner, db_log_flush_outcome
):
    """A reused --workdir (second CLI invocation) starts from scratch
    instead of appending to the leftover warehouse."""
    from repro.validation.runner import ScenarioRunner

    fresh = ScenarioRunner(validation_runner.workdir)
    again = fresh.run("db_log_flush", GATING_SEED, "batch")
    assert again.warehouse_dump == db_log_flush_outcome.warehouse_dump
    assert again.score.to_dict() == db_log_flush_outcome.score.to_dict()


def test_rescore_with_different_slack_keeps_the_warehouse(
    validation_runner, db_log_flush_outcome
):
    rescored = validation_runner.run(
        "db_log_flush", GATING_SEED, "batch", slack_us=0
    )
    assert rescored.warehouse_dump == db_log_flush_outcome.warehouse_dump
    assert rescored.score.slack_us == 0


def test_run_frees_the_simulation_before_returning(tmp_path, monkeypatch):
    """The runner keeps a run's metadata and fault schedule, not the run:
    its object graph (system, traces, monitors) is cyclic, and caching it
    would carry every simulation through every later build."""
    import gc
    import weakref

    import repro.validation.runner as runner_module

    systems = []
    run_scenario = runner_module.run_scenario

    def recording_run_scenario(*args, **kwargs):
        run = run_scenario(*args, **kwargs)
        systems.append(weakref.ref(run.system))
        return run

    monkeypatch.setattr(runner_module, "run_scenario", recording_run_scenario)
    runner = runner_module.ScenarioRunner(tmp_path)
    gc.disable()  # only an explicit collection may free the run
    try:
        outcome = runner.run("db_log_flush", GATING_SEED)
        (system,) = systems
        assert system() is None
    finally:
        gc.enable()
    assert outcome.score.labels_total > 0
