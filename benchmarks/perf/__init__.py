"""Fleet-simulator performance benchmark (``python -m benchmarks.perf``).

Four workloads built through the simulator's public API, measured in fresh
subprocesses, checked against a serial reference, and optionally traced
layer by layer from outside the program.  See ``README.md`` beside this file.
"""

import sys
from pathlib import Path

# The simulator is built from source: make ``repro`` importable from src/.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
