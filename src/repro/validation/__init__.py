"""Ground-truth validation: labeled fault injection, accuracy scoring,
and differential conformance.

milliScope's claim is that millisecond-granularity monitoring lets the
:class:`~repro.analysis.diagnosis.Diagnoser` *correctly* attribute VLRT
requests to very short bottlenecks.  This package closes the loop that
claim requires:

* :mod:`repro.validation.schedule` — every injected VSB episode becomes
  a labeled interval (tier, resource, start/end µs, cause) captured
  straight from the fault injectors' recorded windows;
* :mod:`repro.validation.runner` — drives simulate → native logs →
  transform → warehouse → diagnose for a registry of seeded scenarios
  and scores the diagnosis against the labels;
* :mod:`repro.validation.scoring` — interval matching, precision /
  recall / detection latency / cause-attribution accuracy;
* :mod:`repro.validation.conformance` — one parametrized runner
  asserting warehouse-dump or report equality for every mode pair the
  pipeline claims equivalent.
"""
