"""One set-up in a fresh interpreter; prints its phase times as JSON.

Run from the repository root:
``python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>``.
``run.py`` starts several of these and takes ``setup_s`` as the median
wall time from spawning the interpreter to this script's output line.
The phases are the work a user waits for before the first cell runs:
importing the CLI module, resolving the spec to jobs and their
fingerprints, and opening the result store.
"""

import json
import sys
import time
from pathlib import Path

begin = time.perf_counter()
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.experiments.cli  # noqa: E402,F401

imported = time.perf_counter()

# The campaign and lifetime modules the workload drives.
import workloads  # noqa: E402
from repro.campaign import ShardedResultStore  # noqa: E402

name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.WORKLOADS[name](seed, scratch)
loaded = time.perf_counter()
workload.plan()
planned = time.perf_counter()
if workload.opens_store:
    ShardedResultStore(scratch / "store")
print(json.dumps({
    "import_s": imported - begin,
    "plan_s": planned - loaded,
}), flush=True)
