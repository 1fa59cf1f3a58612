"""Smoke tests: the fast examples run end to end and say what they should,
and every example's imports resolve."""

import ast
import importlib
import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buffer.getvalue()


@pytest.mark.parametrize(
    "name, expectations",
    [
        (
            "quickstart.py",
            ("Figure 2", "Anomaly window", "disk on db1 saturated"),
        ),
        (
            "custom_monitor.py",
            ("poolstat_app1", "busiest samples"),
        ),
        (
            "live_monitoring.py",
            ("anomaly detected", "disk on db1 saturated", "run complete"),
        ),
        (
            "scenario_dirty_pages.py",
            ("Figure 8", "dirty page cache", "different root"),
        ),
    ],
)
def test_example_runs(name, expectations):
    output = run_example(name)
    for expected in expectations:
        assert expected in output, f"{name}: missing {expected!r}"


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports_resolve(path):
    """Every ``from X import Y`` in an example names something ``X``
    has, so the examples too slow to run here cannot rot either."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}:{node.lineno}: "
                    f"{node.module} has no {alias.name!r}"
                )
