"""The sampling frontier's data: the policy grid, the pinned point and
its floors.

The paper's monitors double a tier's disk write volume; the sampling
policies in :mod:`repro.sampling.policy` buy that volume back.
``mscope validate --sampling`` measures what each policy costs in
diagnosis accuracy: it builds each labeled scenario's batch warehouse
under the policy, scores the diagnosis against the fault schedule, and
reads the achieved volume reduction from the warehouse's
``sampling_ledger`` (measured, never estimated).

:data:`PINNED_POLICY` is the operating point the sweep selected —
tail sampling keeps every slow request on all tiers while thinning
the fast ones to its base rate, and the ledger-corrected VLRT
baseline (:meth:`~repro.analysis.diagnosis.Diagnoser.sampled_baseline_us`)
keeps detection calibrated at base rates where a naive median
collapses.  ``validate --check-floors`` holds it to
:data:`FRONTIER_FLOORS`, and every other policy to the scenario's own
floors; the gating CI job and the validation suite run the fast
scenarios at the pinned point.
"""

__all__ = [
    "DEFAULT_POLICY_GRID",
    "FRONTIER_FLOORS",
    "PINNED_POLICY",
]

#: The operating point the frontier sweep pinned (seed 7): recall and
#: rank-1 attribution stay at 1.0 on all eleven labeled scenarios, and
#: the ledger shows >=12.8x row and byte reduction on each but
#: ``memory_leak`` (7.7x, under the floor; nightly only).  At this
#: base rate the raw VLRT median collapses (the survivors are mostly
#: slow requests); the pinned point only holds together with the
#: Diagnoser's inverse-probability baseline correction.
PINNED_POLICY = "tail:0.01:200"

#: Gating floors the pinned operating point must clear on *every*
#: labeled scenario.  ``row_reduction``/``byte_reduction`` come from
#: the warehouse's sampling ledger — measured volume, not an estimate.
FRONTIER_FLOORS: dict[str, float] = {
    "recall": 0.9,
    "rank1_attribution": 0.8,
    "row_reduction": 10.0,
    "byte_reduction": 10.0,
}

#: The nightly sweep grid: every policy family across its useful rate
#: range, bracketing the pinned point from both sides so a frontier
#: shift (e.g. a detector change moving the recall cliff) is visible
#: in the artifact, not just a floor failure.
DEFAULT_POLICY_GRID: tuple[str, ...] = (
    "head:0.5",
    "head:0.2",
    "head:0.1",
    "head:0.05",
    "tail:0.05:50",
    "tail:0.02:100",
    "tail:0.01:150",
    "tail:0.01:200",
    "tail:0.005:200",
)
