"""milliScope reproduction: fine-grained monitoring for n-tier web services.

This package reproduces the system described in "milliScope: A
Fine-Grained Monitoring Framework for Performance Debugging of n-Tier
Web Services" (ICDCS 2017):

* a discrete-event n-tier testbed (:mod:`repro.ntier`) driven by the
  RUBBoS benchmark workload (:mod:`repro.rubbos`);
* the milliScope monitoring framework — event and resource
  mScopeMonitors (:mod:`repro.monitors`), the multi-stage
  mScopeDataTransformer (:mod:`repro.transformer`), and the mScopeDB
  dynamic warehouse (:mod:`repro.warehouse`);
* the analysis layer that diagnoses very short bottlenecks
  (:mod:`repro.analysis`);
* baselines (:mod:`repro.baselines`) and the paper's experiments
  (:mod:`repro.experiments`).

Quickstart::

    from repro.experiments.figures_anomaly import figure_02
    from repro.experiments.scenarios import scenario_a
    run = scenario_a()
    print(figure_02(run).to_text())
"""

__version__ = "1.0.0"
