"""Self-tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``; the
tier-1 suite (``testpaths = ["tests"]``) does not collect them.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))
