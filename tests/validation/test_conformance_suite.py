"""The differential conformance suite: one parametrized test per
equivalence claim the pipeline makes.

Each pair runs the db_log_flush scenario through the baseline and
variant mode from the *same* simulated logs and asserts the promised
equality (warehouse SQL dump, diagnosis reports, or causal hops).
Replaces scattered pairwise checks with a single catalogue — adding a
new equivalent mode means adding one ConformancePair entry, and it is
immediately held to the same standard.
"""

import pytest

from repro.validation.conformance import (
    CONFORMANCE_PAIRS,
    run_conformance_pair,
)

GATING_SEED = 7  # matches conftest.GATING_SEED


def test_catalogue_covers_the_claimed_pairs():
    keys = {pair.key for pair in CONFORMANCE_PAIRS}
    # The equivalence claims the pipeline documents, all present.
    assert {
        "transform-parallel",
        "live-incremental",
        "policy-skip-clean",
        "policy-quarantine-clean",
        "causal-bulk",
        "warehouse-sharded",
    } <= keys
    assert len(CONFORMANCE_PAIRS) >= 5
    assert len(keys) == len(CONFORMANCE_PAIRS), "duplicate pair keys"


@pytest.mark.parametrize(
    "pair", CONFORMANCE_PAIRS, ids=[pair.key for pair in CONFORMANCE_PAIRS]
)
def test_conformance_pair(pair, validation_runner, db_log_flush_outcome):
    result = run_conformance_pair(
        pair,
        "db_log_flush",
        GATING_SEED,
        validation_runner.workdir,
        baseline=db_log_flush_outcome,
        runner=validation_runner,
    )
    assert result.equal, (
        f"claim violated: {pair.claim}\n{result.divergence}"
    )


def test_divergence_is_localized(validation_runner, db_log_flush_outcome):
    """A failing pair names the first differing dump line, not just
    'unequal' — corrupt one line of the variant dump and check."""
    from repro.validation.conformance import _first_dump_divergence

    baseline = db_log_flush_outcome.warehouse_dump
    lines = baseline.splitlines()
    lines[10] = lines[10] + " tampered"
    divergence = _first_dump_divergence(baseline, "\n".join(lines))
    assert divergence is not None and "line 11" in divergence

    truncated = "\n".join(baseline.splitlines()[:-2])
    divergence = _first_dump_divergence(baseline, truncated)
    assert divergence is not None and "length" in divergence

    assert _first_dump_divergence(baseline, baseline) is None


def test_divergence_streams_line_iterables(db_log_flush_outcome):
    """The comparison is lockstep over line *streams* — generators go
    in directly, no materialized dumps required."""
    from repro.validation.conformance import _first_dump_divergence

    assert (
        _first_dump_divergence(
            db_log_flush_outcome.dump_lines(),
            db_log_flush_outcome.dump_lines(),
        )
        is None
    )

    def tampered():
        for index, line in enumerate(db_log_flush_outcome.dump_lines()):
            yield line + " tampered" if index == 10 else line

    divergence = _first_dump_divergence(
        db_log_flush_outcome.dump_lines(), tampered()
    )
    assert divergence is not None and "line 11" in divergence
