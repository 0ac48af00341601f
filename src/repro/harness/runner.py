"""Grid runner: cached, optionally parallel campaign execution.

``GridRunner`` turns a (schemes x pec_points x workloads) request into
an ordered list of independent cell jobs, satisfies as many as it can
from the result store, runs the rest — in-process for a
:class:`SerialExecutor` or a single pending job, otherwise on the
supervised workers of a
:class:`~repro.campaign.supervisor.CellSupervisor` sized by the
executor value — and assembles the
:class:`~repro.harness.grid.EvaluationGrid` in the canonical
pec -> workload -> scheme order regardless of completion order.

Determinism: the runner derives one seed per (pec, workload) point via
:func:`repro.rng.derive` — shared by every scheme at that point, so
schemes are always compared on the *same* trace and device-variation
draw, as in the paper — and each cell is a pure function of its job
description. A ``ProcessExecutor`` grid is therefore bit-identical to
a ``SerialExecutor`` grid, and a cached report is bit-identical to a
recomputed one.

Resume: pass ``cache_dir`` (the root of a
:class:`~repro.campaign.store.ShardedResultStore`) and every finished
cell is persisted immediately; re-running the same campaign (same
spec, schemes, setpoints, workloads, requests, seed) skips straight
past completed cells, so an interrupted campaign continues where it
stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.config import SsdSpec
from repro.errors import ConfigError, PoisonCellError
from repro.experiments.registry import WORKLOADS
from repro.harness.cache import cell_fingerprint
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
from repro.harness.grid import EvaluationGrid, GridCell
from repro.harness.store import ResultStore
from repro.rng import derive
from repro.ssd.metrics import PerfReport
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class CellJob:
    """Self-contained work order for one grid cell (picklable).

    ``workload`` is the abbreviation used for labels and seed
    derivation; ``profile`` carries a caller-supplied
    :class:`WorkloadProfile` when it differs from the registry entry
    for that abbreviation (and is folded into the fingerprint, so a
    tweaked profile never collides with the stock workload's cache).
    """

    scheme: str
    pec: int
    workload: str
    spec: SsdSpec
    requests: int
    erase_suspension: bool
    seed: int
    profile: Optional[WorkloadProfile] = None
    #: Extra scheme knobs as sorted (key, value) pairs — a tuple so the
    #: job stays frozen/picklable with a canonical repr;
    #: ``mispredict_rate`` and ``rber_requirement`` travel here when
    #: non-default.
    scheme_params: Tuple[Tuple[str, Any], ...] = ()
    #: Execution engine (``auto``/``object``/``kernel``). Deliberately
    #: absent from the fingerprint: the kernel replay is report-identical
    #: to the object path (pinned by tests), so both engines share one
    #: cache entry per cell.
    engine: str = "auto"

    #: Family discriminator for the campaign layer and result stores;
    #: lifetime jobs (:class:`repro.lifetime.spec.LifetimeJob`) carry
    #: ``"lifetime"``.
    family = "cell"

    def store_meta(self) -> dict:
        """Human-readable provenance stored alongside the report."""
        meta: dict = {
            "scheme": self.scheme,
            "pec": self.pec,
            "workload": self.workload,
            "requests": self.requests,
            "seed": self.seed,
        }
        if self.scheme_params:
            meta["scheme_params"] = dict(self.scheme_params)
        return meta

    def describe(self) -> str:
        """Short label for logs and quarantine records."""
        return f"{self.scheme}/{self.pec}/{self.workload}"

    @property
    def fingerprint(self) -> str:
        # mispredict_rate keeps its dedicated fingerprint slot (and the
        # remaining params are folded in only when present) so caches
        # written before scheme_params existed remain valid. float()
        # keeps an integer-spelled rate (0 vs 0.0) from splitting the
        # fingerprint via its repr.
        params = dict(self.scheme_params)
        mispredict_rate = float(params.pop("mispredict_rate", 0.0))
        return cell_fingerprint(
            spec=self.spec,
            scheme=self.scheme,
            pec=self.pec,
            workload=(
                self.workload if self.profile is None else repr(self.profile)
            ),
            requests=self.requests,
            seed=self.seed,
            erase_suspension=self.erase_suspension,
            mispredict_rate=mispredict_rate,
            scheme_params=tuple(sorted(params.items())),
        )


def grid_from_jobs(
    jobs: Sequence[CellJob], reports: Sequence[PerfReport]
) -> EvaluationGrid:
    """Assemble an :class:`EvaluationGrid` from jobs and their reports.

    Shared by :meth:`GridRunner.run` and
    :func:`repro.experiments.run_experiments`, so the two entry points
    cannot drift in how cells are keyed.
    """
    grid = EvaluationGrid()
    for job, report in zip(jobs, reports):
        grid.add(
            GridCell(
                scheme=job.scheme,
                pec=job.pec,
                workload=job.workload,
                report=report,
            )
        )
    return grid


def execute_cell(job: CellJob) -> PerfReport:
    """Run one cell job (module-level so worker processes can import it)."""
    return run_workload_cell(
        job.scheme,
        job.pec,
        job.profile if job.profile is not None else job.workload,
        spec=job.spec,
        requests=job.requests,
        erase_suspension=job.erase_suspension,
        seed=job.seed,
        scheme_params=dict(job.scheme_params),
        engine=job.engine,
    )


def execute_job(job: Any) -> Any:
    """Run one job of either campaign family (module-level, picklable).

    Grid cells go through :func:`execute_cell`; any other family
    (e.g. :class:`repro.lifetime.spec.LifetimeJob`) must bring its own
    ``execute()``. Dispatching here keeps the harness importable
    without the lifetime stack while letting every executor, the
    :class:`GridRunner`, and the campaign supervisor run mixed job
    lists through one entry point.
    """
    if isinstance(job, CellJob):
        return execute_cell(job)
    execute = getattr(job, "execute", None)
    if execute is None:
        raise ConfigError(
            f"job of type {type(job).__name__} is neither a CellJob "
            "nor provides execute()"
        )
    return execute()


def plan_jobs(
    schemes: Sequence[str],
    pec_points: Sequence[int],
    workloads: Sequence[Union[str, WorkloadProfile]],
    requests: int,
    spec: Optional[SsdSpec],
    erase_suspension: bool,
    seed: int,
    engine: str = "auto",
) -> List[CellJob]:
    """Plan a campaign's jobs in canonical pec -> workload -> scheme order.

    The single planner behind :meth:`GridRunner.plan` and
    :meth:`repro.campaign.spec.CampaignSpec.jobs`, so grid runs and
    orchestrated campaigns derive identical seeds and fingerprints —
    a cell cached by one is served to the other.
    """
    jobs: List[CellJob] = []
    for pec in pec_points:
        for workload in workloads:
            if isinstance(workload, WorkloadProfile):
                abbr = workload.abbr
                # A profile identical to the registry entry shares
                # the stock workload's cache; any tweak keeps the
                # object (and a distinct fingerprint).
                try:
                    profile = (
                        None
                        if workload == WORKLOADS.resolve(abbr)
                        else workload
                    )
                except ConfigError:
                    profile = workload
            else:
                abbr, profile = workload, None
            # One seed per (pec, workload) point, shared by every
            # scheme so they replay the same trace on the same
            # device-variation draw.
            cell_seed = derive(seed, "grid", pec, abbr)
            cell_spec = (
                spec if spec is not None
                else SsdSpec.small_test(seed=cell_seed)
            )
            for scheme in schemes:
                jobs.append(
                    CellJob(
                        scheme=scheme,
                        pec=pec,
                        workload=abbr,
                        spec=cell_spec,
                        requests=requests,
                        erase_suspension=erase_suspension,
                        seed=cell_seed,
                        profile=profile,
                        engine=engine,
                    )
                )
    return jobs


@dataclass
class RunStats:
    """Where the cells of the last campaign came from."""

    executed: int = 0
    cached: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached


_ExecutorValue = Union[SerialExecutor, ProcessExecutor, ThreadExecutor]


class GridRunner:
    """Executes evaluation grids on supervised workers and a cache."""

    def __init__(
        self,
        executor: Optional[_ExecutorValue] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        cache: Optional[ResultStore] = None,
    ):
        """``executor`` sizes the fan-out (serial by default);
        ``cache`` accepts any :class:`ResultStore`; ``cache_dir`` is
        shorthand for ``cache=ShardedResultStore(cache_dir)``. Passing
        both is ambiguous.
        """
        if cache is not None and cache_dir is not None:
            raise ConfigError("pass either cache or cache_dir, not both")
        if cache_dir is not None:
            # Lazy: repro.campaign imports this module via its
            # orchestrator, so a top-level import would be circular.
            from repro.campaign.store import ShardedResultStore

            cache = ShardedResultStore(cache_dir)
        self.executor = executor or SerialExecutor()
        self.cache: Optional[ResultStore] = cache
        self.stats = RunStats()

    # --- job planning -------------------------------------------------------

    def plan(
        self,
        schemes: Sequence[str],
        pec_points: Sequence[int],
        workloads: Sequence[Union[str, WorkloadProfile]],
        requests: int,
        spec: Optional[SsdSpec],
        erase_suspension: bool,
        seed: int,
        engine: str = "auto",
    ) -> List[CellJob]:
        """The campaign's jobs in canonical pec -> workload -> scheme order."""
        return plan_jobs(
            schemes, pec_points, workloads, requests, spec,
            erase_suspension, seed, engine=engine,
        )

    # --- execution ----------------------------------------------------------

    def execute_jobs(self, jobs: Sequence[Any]) -> List[Any]:
        """Execute jobs, results in job order; cache-aware.

        The reusable core of :meth:`run` — the declarative experiment
        layer (:func:`repro.experiments.run_experiments`) feeds
        :class:`CellJob` lists resolved from ``ExperimentSpec`` objects
        through the same cache-then-execute path, so CLI runs, spec
        files, and grid campaigns share cache entries. Jobs of any
        campaign family run here — lifetime jobs
        (:class:`repro.lifetime.spec.LifetimeJob`) interleave freely
        with grid cells; each needs only ``fingerprint``,
        ``store_meta()``, and :func:`execute_job` support. Updates
        :attr:`stats`.

        Pending jobs run in-process when the executor is serial or only
        one is pending; otherwise they fan out on the executor's pool
        under a :class:`~repro.campaign.supervisor.CellSupervisor` with
        no retries, and a failing job raises :class:`PoisonCellError`
        carrying its ``ExcType: message``. Either way each result is
        persisted the moment it arrives, so an interrupted campaign
        keeps every completed cell and resumes from there.
        """
        reports: List[Optional[Any]] = [None] * len(jobs)
        pending: List[int] = []
        if self.cache is not None:
            for index, job in enumerate(jobs):
                cached = self.cache.get(job.fingerprint)
                if cached is not None:
                    reports[index] = cached
                else:
                    pending.append(index)
        else:
            pending = list(range(len(jobs)))

        if min(self.executor.workers, len(pending)) <= 1:
            for index in pending:
                self._finish(jobs, reports, index, execute_job(jobs[index]))
        else:
            self._fan_out(jobs, reports, pending)

        self.stats = RunStats(
            executed=len(pending), cached=len(jobs) - len(pending)
        )
        return reports

    def _finish(
        self, jobs: Sequence[Any], reports: List[Any], index: int, report: Any
    ) -> None:
        reports[index] = report
        if self.cache is not None:
            job = jobs[index]
            self.cache.put(job.fingerprint, report, meta=job.store_meta())

    def _fan_out(
        self, jobs: Sequence[Any], reports: List[Any], pending: List[int]
    ) -> None:
        # Lazy: repro.campaign.supervisor imports this module.
        from repro.campaign.supervisor import CellSupervisor, RetryPolicy

        workers = self.executor.workers
        supervisor = CellSupervisor(
            policy=RetryPolicy(max_retries=0),
            process_workers=workers,
            thread_workers=workers,
            engine_fallback=False,
        )
        try:
            for index in pending:
                supervisor.submit(index, jobs[index], self.executor.pool)
            while True:
                outcome = supervisor.next_outcome()
                if outcome is None:
                    break
                if outcome.kind != "done":
                    # Ad-hoc lifetime curve jobs carry no fingerprint.
                    fingerprint = getattr(outcome.job, "fingerprint", "")
                    raise PoisonCellError(
                        f"job {outcome.index} failed: {outcome.error}",
                        index=outcome.index,
                        fingerprint=fingerprint,
                    )
                self._finish(jobs, reports, outcome.index, outcome.report)
        finally:
            supervisor.close()

    def run(
        self,
        schemes: Sequence[str] = PAPER_SCHEMES,
        pec_points: Sequence[int] = PAPER_PEC_POINTS,
        workloads: Sequence[Union[str, WorkloadProfile]] = ("ali.A", "hm", "usr"),
        requests: int = 1200,
        spec: Optional[SsdSpec] = None,
        erase_suspension: bool = True,
        seed: int = 0xAE20,
        engine: str = "auto",
    ) -> EvaluationGrid:
        """Run a campaign; stored cells load, the rest execute."""
        jobs = self.plan(
            schemes, pec_points, workloads, requests, spec,
            erase_suspension, seed, engine=engine,
        )
        return grid_from_jobs(jobs, self.execute_jobs(jobs))


def run_grid(
    schemes: Sequence[str] = PAPER_SCHEMES,
    pec_points: Sequence[int] = PAPER_PEC_POINTS,
    workloads: Sequence[Union[str, WorkloadProfile]] = ("ali.A", "hm", "usr"),
    requests: int = 1200,
    spec: Optional[SsdSpec] = None,
    erase_suspension: bool = True,
    seed: int = 0xAE20,
    engine: str = "auto",
    executor: Optional[_ExecutorValue] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> EvaluationGrid:
    """Run a (scheme x pec x workload) grid.

    The one-call façade over :class:`GridRunner`: pass ``executor``
    (e.g. ``ProcessExecutor(4)``) to run cells on that many supervised
    worker processes and ``cache_dir`` to persist/reuse finished cells.
    """
    runner = GridRunner(executor=executor, cache_dir=cache_dir)
    return runner.run(
        schemes=schemes,
        pec_points=pec_points,
        workloads=workloads,
        requests=requests,
        spec=spec,
        erase_suspension=erase_suspension,
        seed=seed,
        engine=engine,
    )
