"""numpy is the only third-party runtime dependency, and the light
entry points stay light.

Each loading check runs in a fresh interpreter, so what it sees in
``sys.modules`` is what the import itself pulled in.  Package
``__init__``s are docstrings: every name is imported from the module
that defines it, so importing one module runs no sibling's code.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: A ``sys.meta_path`` finder that makes the graph and statistics
#: libraries the package used to depend on unimportable.
BLOCK_OPTIONAL = """
import sys

class BlockOptional:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, BlockOptional())
"""


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(module: str) -> set[str]:
    out = run_python(
        f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    )
    return set(json.loads(out.splitlines()[-1]))


def _pulled(loaded, modules: tuple[str, ...]) -> list[str]:
    """The loaded modules that are one of ``modules`` or inside one."""
    return sorted(
        name for name in loaded
        for module in modules
        if name == module or name.startswith(module + ".")
    )


def test_every_module_and_the_cli_import_without_scipy_or_networkx():
    out = run_python(
        BLOCK_OPTIONAL
        + """
import importlib
import pkgutil

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.cli import main

try:
    main(["--help"])
except SystemExit as exit:
    assert exit.code == 0, exit.code
"""
    )
    assert "usage: mscope" in out


def test_package_inits_are_docstrings():
    """Each name has one import path, its defining module.  The parsers
    package is the exception: importing its modules runs the
    ``@register_parser`` decorators that fill the registry
    ``create_parser`` reads."""
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert len(inits) > 10
    offenders = {}
    for path in inits:
        name = path.relative_to(SRC).as_posix()
        if name == "repro/transformer/parsers/__init__.py":
            continue
        tree = ast.parse(path.read_text())
        extra = [ast.unparse(node) for node in tree.body[1:]]
        if name == "repro/__init__.py":
            extra = [s for s in extra if not s.startswith("__version__ = ")]
        if ast.get_docstring(tree) is None or extra:
            offenders[name] = extra
    assert not offenders, offenders


def test_importing_the_package_loads_nothing_else():
    loaded = loaded_after("repro")
    assert not sorted(name for name in loaded if name.startswith("repro."))
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "module", ["repro.warehouse.db", "repro.transformer.pipeline"]
)
def test_warehouse_and_transformer_load_no_analysis_stack(module):
    loaded = loaded_after(module)
    assert "numpy" not in loaded
    heavy = {"repro.analysis", "repro.ntier", "repro.experiments"}
    pulled = {name for name in loaded if ".".join(name.split(".")[:2]) in heavy}
    assert not pulled, sorted(pulled)


def test_the_cli_loads_no_simulator_analysis_or_numpy():
    """Each subcommand imports what it runs, so importing the CLI and
    printing its help pull in none of the simulator, the scenario
    builders, the monitors, the diagnosis engine, numpy, or the
    transform, sampling, shard and telemetry stages."""
    out = run_python(
        """
import json, sys

import repro.cli

imported = sorted(sys.modules)
try:
    repro.cli.main(["--help"])
except SystemExit as exit:
    assert exit.code == 0, exit.code
print(json.dumps([imported, sorted(sys.modules)]))
"""
    )
    heavy = (
        "repro.sim", "repro.ntier", "repro.experiments", "repro.analysis",
        "repro.monitors", "numpy", "repro.transformer.pipeline",
        "repro.transformer.live", "repro.transformer.importer",
        "repro.sampling", "repro.warehouse.sharded", "repro.telemetry",
    )
    for loaded in json.loads(out.splitlines()[-1]):
        assert not _pulled(loaded, heavy)


def test_the_diagnosis_engine_loads_no_reporting_or_layout_code():
    loaded = loaded_after("repro.analysis.diagnosis")
    assert "repro.analysis.diagnosis" in loaded
    assert not _pulled(loaded, (
        "repro.analysis.report", "repro.analysis.breakdown",
        "repro.analysis.skew", "repro.analysis.render",
        "repro.warehouse.explorer", "repro.warehouse.sharded",
    ))


def test_the_scenario_builders_load_no_figures_or_validation():
    loaded = loaded_after("repro.experiments.scenarios")
    assert "repro.experiments.scenarios" in loaded
    assert not _pulled(loaded, (
        "repro.experiments.figures_anomaly",
        "repro.experiments.figures_validation",
        "repro.experiments.sweeps", "repro.validation",
    ))


#: What a simulation never runs: the analysis stack and numpy, the
#: transform and live-ingest stages, the baselines, sampling, telemetry
#: and the shard layout.  Simulating and writing the native logs is the
#: monitors' part (paper §III); the rest runs later, on the logs.
NOT_THE_SIMULATOR = (
    "numpy", "repro.analysis", "repro.transformer.pipeline",
    "repro.transformer.importer", "repro.transformer.live",
    "repro.baselines", "repro.sampling", "repro.telemetry",
    "repro.warehouse.sharded",
)


def test_the_simulator_loads_no_analysis_transformer_warehouse_or_numpy():
    """The scenario builders, the monitor suites, the system and every
    simulator, n-tier, monitor, workload and log-format module
    (except the vector kernel's two) import none of the later stages."""
    out = run_python(
        """
import importlib, json, pkgutil, sys

import repro.experiments.scenarios
import repro.monitors.event.suite
import repro.monitors.resource.suite
import repro.ntier.system

for package in ("sim", "ntier", "monitors", "rubbos", "logfmt"):
    root = importlib.import_module("repro." + package)
    for info in pkgutil.walk_packages(root.__path__, root.__name__ + "."):
        if info.name not in ("repro.sim.vector", "repro.ntier.vectorclient"):
            importlib.import_module(info.name)
print(json.dumps(sorted(sys.modules)))
"""
    )
    loaded = set(json.loads(out.splitlines()[-1]))
    assert {"repro.logfmt.sar", "repro.monitors.event.apache"} <= loaded
    # Not even the error policy or the run-metadata file name, which
    # the CLI's parser and ``mscope run`` take from these packages.
    assert not _pulled(
        loaded, NOT_THE_SIMULATOR + ("repro.transformer", "repro.warehouse")
    )


def test_mscope_run_loads_only_the_simulator(tmp_path):
    out = run_python(
        f"""
import json, sys

from repro.cli import main

code = main(["run", "--scenario", "a", "--duration", "0.2",
             "--out", {str(tmp_path / "out")!r}])
assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""
    )
    loaded = set(json.loads(out.splitlines()[-1]))
    assert "repro.experiments.scenarios" in loaded
    assert (tmp_path / "out" / "logs" / "web1" / "access_log.log").exists()
    assert not _pulled(loaded, NOT_THE_SIMULATOR + ("repro.warehouse",))
