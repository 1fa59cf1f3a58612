"""Adaptive log-volume reduction policies.

The paper concedes that fine-grained monitoring can double disk write
volume (four timestamps per request per tier).  This package holds the
pluggable sampling policies the transformer layer threads through
batch, live, and sharded ingest, plus the data of the accuracy/volume
frontier (the policy grid, the pinned operating point and its floors)
that ``mscope validate --sampling`` measures to prove the reduced logs
still diagnose correctly.
"""
