"""Execute declarative experiment specs through the grid runner.

``run_experiments`` is the bridge between the declarative surface
(:class:`~repro.experiments.spec.ExperimentSpec`) and the execution
machinery (:class:`~repro.harness.runner.GridRunner`): each spec
resolves to a :class:`~repro.harness.runner.CellJob`, the jobs flow
through the runner's cache-then-executor path, and the results come
back both as a flat report list (aligned with the input specs) and as
an :class:`~repro.harness.grid.EvaluationGrid` for figure-shaped
projections. Because spec resolution reproduces ``GridRunner.plan``'s
seed derivation and fingerprints, a cell cached by a grid campaign is
served to a CLI/spec-file run of the same cell, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.experiments.spec import ExperimentSpec
from repro.harness.grid import EvaluationGrid
from repro.harness.runner import CellJob, GridRunner, RunStats, grid_from_jobs
from repro.ssd.metrics import PerfReport


@dataclass(frozen=True)
class ExperimentRun:
    """Results of one batch of experiment specs.

    ``reports[i]`` is the report of ``specs[i]``; ``grid`` holds the
    same reports keyed by (scheme, pec, workload); ``stats`` says how
    many cells executed vs were served from cache.
    """

    specs: Tuple[ExperimentSpec, ...]
    jobs: Tuple[CellJob, ...]
    reports: Tuple[PerfReport, ...]
    grid: EvaluationGrid
    stats: RunStats

    def __len__(self) -> int:
        return len(self.specs)


def run_experiments(
    specs: Sequence[ExperimentSpec],
    executor: Optional[object] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ExperimentRun:
    """Run experiment specs; cached cells load, the rest execute.

    Pass ``executor`` (e.g. ``ProcessExecutor(4)``) to fan cells out
    across processes and ``cache_dir`` (a result-store root) to
    persist/reuse finished cells.
    """
    specs = tuple(specs)
    if not specs:
        raise ConfigError("run_experiments needs at least one spec")
    runner = GridRunner(executor=executor, cache_dir=cache_dir)
    jobs = tuple(spec.resolve() for spec in specs)
    reports = tuple(runner.execute_jobs(jobs))
    grid = grid_from_jobs(jobs, reports)
    return ExperimentRun(
        specs=specs,
        jobs=jobs,
        reports=reports,
        grid=grid,
        stats=runner.stats,
    )


def run_experiment(
    spec: ExperimentSpec,
    executor: Optional[object] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> PerfReport:
    """Run a single spec and return its report (one-call convenience)."""
    return run_experiments(
        [spec], executor=executor, cache_dir=cache_dir
    ).reports[0]
