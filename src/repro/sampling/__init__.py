"""Adaptive log-volume reduction policies.

The paper concedes that fine-grained monitoring can double disk write
volume (four timestamps per request per tier).  This package holds the
pluggable sampling policies the transformer layer threads through
batch, live, and sharded ingest, plus the data of the accuracy/volume
frontier (the policy grid, the pinned operating point and its floors)
that ``mscope validate --sampling`` measures to prove the reduced logs
still diagnose correctly.
"""

from repro.sampling.frontier import (
    DEFAULT_POLICY_GRID,
    FRONTIER_FLOORS,
    PINNED_POLICY,
)
from repro.sampling.policy import (
    ConflationPolicy,
    HeadSamplingPolicy,
    SampleCounts,
    SamplingPolicy,
    TailSamplingPolicy,
    coherent_keep,
    parse_policy,
    row_bytes,
)

__all__ = [
    "ConflationPolicy",
    "DEFAULT_POLICY_GRID",
    "FRONTIER_FLOORS",
    "HeadSamplingPolicy",
    "PINNED_POLICY",
    "SampleCounts",
    "SamplingPolicy",
    "TailSamplingPolicy",
    "coherent_keep",
    "parse_policy",
    "row_bytes",
]
