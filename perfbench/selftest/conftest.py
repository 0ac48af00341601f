"""Make the benchmark's modules and the package importable.

Appended, not prepended: the benchmark's top-level module names must
not shadow anything else a test session imports.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.append(str(path))
