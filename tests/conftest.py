"""The definition-level oracles of perfbench/oracles.py, for every test.

That module does not import mchords.  It is loaded here once, by path,
and registered as the module `oracles`, the name the benchmark imports
it by, so a test file reads `import oracles`.
"""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py")
sys.modules["oracles"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sys.modules["oracles"])
