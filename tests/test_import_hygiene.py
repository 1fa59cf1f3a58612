"""numpy is the only third-party runtime dependency, and the light
entry points stay light.

Each check runs in a fresh interpreter, so what it sees in
``sys.modules`` is what the import itself pulled in.
"""

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
