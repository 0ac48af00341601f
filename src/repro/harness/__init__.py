"""Experiment harness: the paper's evaluation grid, cached and parallel.

Runs (scheme x PEC-setpoint x workload) cells of the Section 7
evaluation and assembles the normalized comparisons the paper's figures
show. The package splits the old single-module harness into layers:

* :mod:`repro.harness.cells` — one cell end to end
  (``run_workload_cell``);
* :mod:`repro.harness.grid` — :class:`EvaluationGrid` with an O(1)
  ``(scheme, pec, workload)`` index and figure-shaped projections;
* :mod:`repro.harness.executors` — :class:`SerialExecutor` /
  :class:`ProcessExecutor` / :class:`ThreadExecutor`, worker-count
  values naming where pending jobs run: in-process, or on that many
  supervised process/thread workers;
* :mod:`repro.harness.cache` — :func:`cell_fingerprint`, the key every
  finished cell persists under, and :data:`CACHE_VERSION`;
* :mod:`repro.harness.store` — :class:`ResultStore`, the persistence
  contract; ``cache_dir=`` opens its one implementation,
  :class:`~repro.campaign.store.ShardedResultStore`;
* :mod:`repro.harness.runner` — :class:`GridRunner` and the
  ``run_grid`` façade tying them together.

Quick start::

    from repro.harness import ProcessExecutor, run_grid

    grid = run_grid(
        workloads=("ali.A", "hm"),
        requests=900,
        executor=ProcessExecutor(4),      # fan cells out over 4 processes
        cache_dir=".repro-cache",         # store root; re-runs skip done cells
    )
    print(grid.geomean_normalized(lambda r: r.read_tail(99.0), pec=500))

Parallel, cached, and serial runs of the same campaign are
bit-identical: cell seeds derive deterministically from the campaign
seed via :func:`repro.rng.derive`, and each cell is a pure function of
its inputs. ``from repro.harness import run_grid, run_workload_cell``
keeps working exactly as it did when the harness was one module.
"""

from repro.harness.cache import (
    CACHE_VERSION,
    CacheEntry,
    GcResult,
    cell_fingerprint,
)
from repro.harness.cells import (
    PAPER_PEC_POINTS,
    PAPER_SCHEMES,
    run_workload_cell,
)
from repro.harness.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.harness.grid import CellKey, EvaluationGrid, GridCell
from repro.harness.runner import (
    CellJob,
    GridRunner,
    RunStats,
    execute_cell,
    grid_from_jobs,
    plan_jobs,
    run_grid,
)
from repro.harness.store import ResultStore

__all__ = [
    "CACHE_VERSION",
    "CacheEntry",
    "CellJob",
    "GcResult",
    "CellKey",
    "EvaluationGrid",
    "GridCell",
    "GridRunner",
    "PAPER_PEC_POINTS",
    "PAPER_SCHEMES",
    "ProcessExecutor",
    "ResultStore",
    "RunStats",
    "SerialExecutor",
    "ThreadExecutor",
    "cell_fingerprint",
    "execute_cell",
    "grid_from_jobs",
    "plan_jobs",
    "run_grid",
    "run_workload_cell",
]
