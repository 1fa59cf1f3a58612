"""Pipeline self-observability: spans, run telemetry, exports.

The transformer's own monitoring layer — the paper's medicine applied
to our hot path.  See :mod:`repro.telemetry.spans` for the measurement
primitives, :mod:`repro.telemetry.aggregate` for the per-run rollup,
and :mod:`repro.telemetry.export` for the JSON / Prometheus / text
renderings.
"""
