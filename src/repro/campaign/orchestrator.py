"""Campaign orchestrator: mixed process+thread fan-out with resume.

:class:`CampaignOrchestrator` executes a :class:`CampaignSpec` against
a result store:

1. **Plan** — the spec's cells become ``GridRunner.plan``-identical
   :class:`CellJob` objects (shared fingerprints, shared store
   entries).
2. **Resume** — every cell whose fingerprint the store can retrieve is
   loaded, not re-executed; a campaign killed at any point restarts
   from the store alone.
3. **Route** — pending cells split across a mixed executor pool by
   engine: kernel-engine cells go to thread workers, object-engine
   cells to process workers. Measured
   on 2 CPUs, 2 thread workers ran kernel cells at 12.8 cells/s
   against 14.2 on one, so the thread pool adds no speedup.
4. **Supervise** — cells run under a
   :class:`~repro.campaign.supervisor.CellSupervisor`: wall-clock
   timeouts, retry with seeded backoff, pool rebuild when a worker
   dies, quarantine for poison cells — a flaky cell never aborts the
   campaign (``on_poison="fail"`` opts back into aborting).
5. **Stream** — each finished report is appended to the store the
   moment it arrives, so an interruption loses at most the in-flight
   cells; a put that raises :class:`~repro.errors.InjectedFault`
   (chaos testing) re-queues its cell instead of crashing.
6. **Report** — a progress callback receives cells done / total,
   throughput, and a projected finish throughout the run.

Determinism: cells are pure functions of their jobs and the grid is
assembled in job order, so an orchestrated (parallel, resumed,
mixed-pool, even retried) campaign is bit-identical to a fresh
:class:`SerialExecutor` run of the same spec — pinned by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.campaign.quarantine import Quarantine
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ShardedResultStore
from repro.campaign.supervisor import CellSupervisor, RetryPolicy
from repro.errors import ConfigError, InjectedFault, PoisonCellError
from repro.faults import FaultPlan
from repro.harness.grid import EvaluationGrid
from repro.harness.runner import grid_from_jobs
from repro.harness.store import ResultStore
from repro.telemetry.instruments import campaign_metrics


def cell_engine_kind(job: Any) -> str:
    """Which engine a job will execute on: kernel or object.

    For grid cells this mirrors the decision inside
    ``run_workload_cell`` without building an SSD: ``build_ssd`` always
    constructs one of the two exact FTL types the cell kernel supports,
    and freshly built drives never carry retired blocks, so every cell
    that does not force ``engine="object"`` replays on the kernel path.
    Lifetime jobs resolve through
    :attr:`~repro.lifetime.spec.LifetimeJob.resolved_engine` (the
    scheme may not provide a batch kernel at all).
    """
    if getattr(job, "family", "cell") == "lifetime":
        return job.resolved_engine
    return "object" if job.engine == "object" else "kernel"


@dataclass(frozen=True)
class CampaignProgress:
    """One progress snapshot, handed to the ``progress`` callback."""

    total: int
    executed: int
    resumed: int
    elapsed_s: float

    @property
    def done(self) -> int:
        return self.executed + self.resumed

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def cells_per_s(self) -> Optional[float]:
        """Execution throughput (resumed cells load instantly and are
        excluded — they would inflate the rate the ETA projects with)."""
        if self.executed == 0 or self.elapsed_s <= 0:
            return None
        return self.executed / self.elapsed_s

    @property
    def eta_s(self) -> Optional[float]:
        """Projected seconds to finish, None until a rate exists."""
        rate = self.cells_per_s
        if rate is None or not rate:
            return None
        return self.remaining / rate

    def format(self) -> str:
        """One status line: done/total, %, rate, ETA, provenance."""
        parts = [
            f"{self.done}/{self.total} cells ({self.fraction:.1%})",
        ]
        rate = self.cells_per_s
        if rate is not None:
            parts.append(f"{rate:.2f} cells/s")
        eta = self.eta_s
        if eta is not None and self.remaining:
            parts.append(f"ETA {_format_duration(eta)}")
        parts.append(f"executed {self.executed}, resumed {self.resumed}")
        return " · ".join(parts)


def _format_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


@dataclass(frozen=True)
class CampaignStats:
    """Where the campaign's cells came from, and how long it took.

    The supervision counters (``retried`` .. ``interrupted``) stay
    zero on a healthy run.
    """

    total: int
    executed: int
    resumed: int
    thread_cells: int
    process_cells: int
    wall_s: float
    retried: int = 0
    timeouts: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    degraded: int = 0
    interrupted: int = 0


@dataclass(frozen=True)
class CampaignResult:
    """Everything one orchestrated campaign produced.

    ``reports[i]`` is ``None`` for a quarantined or interrupted cell;
    the grid holds the *grid cells* that finished (lifetime jobs do
    not live on a (scheme, pec, workload) grid), and ``comparisons``
    the assembled :class:`~repro.lifetime.comparison.SchemeComparison`
    of every lifetime member whose curves all completed.
    ``quarantined`` carries the quarantine records written this run.
    """

    spec: Any
    jobs: Tuple[Any, ...]
    reports: Tuple[Optional[Any], ...]
    grid: EvaluationGrid
    stats: CampaignStats
    quarantined: Tuple[Dict[str, Any], ...] = ()
    comparisons: Tuple[Any, ...] = ()

    @property
    def complete(self) -> bool:
        return all(report is not None for report in self.reports)

    def family_counts(self) -> Dict[str, Dict[str, int]]:
        """``{family: {"total": n, "done": m}}`` across the job list."""
        counts: Dict[str, Dict[str, int]] = {}
        for job, report in zip(self.jobs, self.reports):
            family = getattr(job, "family", "cell")
            entry = counts.setdefault(family, {"total": 0, "done": 0})
            entry["total"] += 1
            if report is not None:
                entry["done"] += 1
        return counts


_ProgressFn = Callable[[CampaignProgress], None]
_CellFn = Callable[[int, Any, Any], None]


class CampaignOrchestrator:
    """Runs one campaign spec against a store on a mixed executor pool."""

    def __init__(
        self,
        spec: Union[CampaignSpec, Any],
        store: Union[ResultStore, str, Path],
        process_workers: int = 1,
        thread_workers: int = 1,
        progress: Optional[_ProgressFn] = None,
        progress_interval_s: float = 1.0,
        on_cell: Optional[_CellFn] = None,
        cell_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        on_poison: str = "skip",
        fault_plan: Optional[FaultPlan] = None,
        engine_fallback: bool = True,
        shutdown: Optional[Any] = None,
    ):
        """``store`` is a :class:`ResultStore` or a path (opened as a
        :class:`ShardedResultStore`). ``progress`` is called with a
        :class:`CampaignProgress` at start, at most every
        ``progress_interval_s`` seconds while cells stream in, and at
        the end. ``on_cell(index, job, report)`` fires after each
        *executed* cell is persisted — an exception from it aborts the
        run (which is exactly how the interrupted-resume tests and the
        CI kill step simulate a crash; everything already persisted
        resumes).

        Supervision: ``cell_timeout_s`` bounds each attempt's wall
        clock; a failing cell is retried up to ``max_retries`` times
        with seeded exponential backoff, then (``engine_fallback``)
        kernel-engine cells get one object-engine attempt, then the
        cell is quarantined — skipped with a record
        (``on_poison="skip"``) or fatal
        (``on_poison="fail"`` → :class:`PoisonCellError`).
        ``fault_plan`` arms deterministic chaos (worker kills, slow
        cells; put faults must be armed on the store itself).
        ``shutdown`` is a ``threading.Event``-like object: once set,
        no new cells are admitted and in-flight ones drain.
        """
        if process_workers < 1 or thread_workers < 1:
            raise ConfigError("campaign worker counts must be >= 1")
        if on_poison not in ("skip", "fail"):
            raise ConfigError(
                f"on_poison must be 'skip' or 'fail', got {on_poison!r}"
            )
        self.spec = spec
        self.store: ResultStore = (
            ShardedResultStore(store)
            if isinstance(store, (str, Path)) else store
        )
        self.process_workers = process_workers
        self.thread_workers = thread_workers
        self.progress = progress
        self.progress_interval_s = progress_interval_s
        self.on_cell = on_cell
        self.cell_timeout_s = cell_timeout_s
        self.max_retries = max_retries
        self.on_poison = on_poison
        self.fault_plan = fault_plan or FaultPlan()
        self.engine_fallback = engine_fallback
        self.shutdown = shutdown
        self.quarantine = Quarantine(getattr(self.store, "root", None))

    # --- planning helpers ---------------------------------------------------

    def plan(self) -> List[Any]:
        """The campaign's jobs (``GridRunner.plan``-identical for grid
        cells; lifetime members emit :class:`LifetimeJob` orders)."""
        return self.spec.jobs()

    def status(self) -> CampaignProgress:
        """Resume status of the store, without executing anything."""
        jobs = self.plan()
        done = sum(1 for job in jobs if job.fingerprint in self.store)
        return CampaignProgress(
            total=len(jobs), executed=0, resumed=done, elapsed_s=0.0
        )

    def family_status(self) -> Dict[str, Dict[str, int]]:
        """Per-family resume counts (``campaign status --json``)."""
        counts: Dict[str, Dict[str, int]] = {}
        for job in self.plan():
            family = getattr(job, "family", "cell")
            entry = counts.setdefault(family, {"total": 0, "done": 0})
            entry["total"] += 1
            if job.fingerprint in self.store:
                entry["done"] += 1
        return counts

    def _member_ranges(self) -> List[Tuple[Any, int, int]]:
        """``(member, start, stop)`` job slices; single-family specs
        are their own sole member."""
        ranges = getattr(self.spec, "member_ranges", None)
        if ranges is not None:
            return ranges()
        return [(self.spec, 0, self.spec.size)]

    # --- execution ----------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute the campaign; resume, fan out, stream, assemble."""
        start = time.monotonic()
        jobs = self.plan()
        reports: List[Optional[Any]] = [None] * len(jobs)

        # Resume pass: everything the store can retrieve is loaded.
        pending: List[int] = []
        for index, job in enumerate(jobs):
            cached = self.store.get(job.fingerprint)
            if cached is not None:
                reports[index] = cached
            else:
                pending.append(index)
        resumed = len(jobs) - len(pending)

        # Route by engine: kernel cells to threads, object cells to
        # processes (see cell_engine_kind for why).
        thread_indices = [
            i for i in pending if cell_engine_kind(jobs[i]) == "kernel"
        ]
        process_indices = [
            i for i in pending if cell_engine_kind(jobs[i]) == "object"
        ]

        metrics = campaign_metrics()
        metrics.planned.set(len(jobs))
        # Pre-create the outcome series at zero so a scrape racing the
        # first completed cell still sees every family.
        for outcome in ("executed", "resumed", "superseded"):
            metrics.cells.labels(outcome=outcome).inc(0)
        for reason in ("error", "timeout", "worker_death", "persist_fault"):
            metrics.retries.labels(reason=reason).inc(0)
        metrics.timeouts.inc(0)
        metrics.quarantined.inc(0)
        metrics.engine_fallbacks.inc(0)
        for pool in ("thread", "process"):
            metrics.pool_rebuilds.labels(pool=pool).inc(0)
        if resumed:
            metrics.cells.labels(outcome="resumed").inc(resumed)
        pool_of = {index: "thread" for index in thread_indices}
        pool_of.update({index: "process" for index in process_indices})
        pool_executed = {"thread": 0, "process": 0}
        metrics.pool_workers.labels(pool="thread").set(self.thread_workers)
        metrics.pool_workers.labels(pool="process").set(self.process_workers)
        supervisor = CellSupervisor(
            policy=RetryPolicy(
                max_retries=self.max_retries, seed=self.spec.seed
            ),
            cell_timeout_s=self.cell_timeout_s,
            process_workers=self.process_workers,
            thread_workers=self.thread_workers,
            fault_plan=self.fault_plan,
            engine_fallback=self.engine_fallback,
            shutdown=self.shutdown,
        )
        for index in thread_indices:
            supervisor.submit(index, jobs[index], "thread")
        for index in process_indices:
            supervisor.submit(index, jobs[index], "process")

        def update_pool_gauges() -> None:
            for pool in ("thread", "process"):
                metrics.pool_pending.labels(pool=pool).set(
                    supervisor.pending_count(pool)
                )
                metrics.pool_inflight.labels(pool=pool).set(
                    supervisor.inflight_count(pool)
                )

        update_pool_gauges()
        executed = 0
        last_emit = [0.0]

        def emit(force: bool = False) -> None:
            now = time.monotonic()
            snapshot = CampaignProgress(
                total=len(jobs),
                executed=executed,
                resumed=resumed,
                elapsed_s=now - start,
            )
            # Telemetry gauges track every snapshot, including the
            # final one — the callback stays throttled below.
            metrics.progress_fraction.set(snapshot.fraction)
            eta = snapshot.eta_s
            if eta is not None:
                metrics.eta_seconds.set(eta)
            elif snapshot.remaining == 0:
                metrics.eta_seconds.set(0.0)
            if self.progress is None:
                return
            if not force and now - last_emit[0] < self.progress_interval_s:
                return
            last_emit[0] = now
            self.progress(snapshot)

        emit(force=True)
        quarantined_records: List[Dict[str, Any]] = []
        try:
            while True:
                outcome = supervisor.next_outcome()
                if outcome is None:
                    break
                index = outcome.index
                job = outcome.job
                if outcome.kind == "done":
                    report = outcome.report
                    meta = job.store_meta()
                    superseding = job.fingerprint in self.store
                    try:
                        self.store.put(job.fingerprint, report, meta=meta)
                    except InjectedFault as fault:
                        # A chaos fault around the append: the result
                        # may not be durable, so the cell goes around
                        # again instead of taking the campaign down.
                        supervisor.requeue(
                            index, "persist_fault", str(fault)
                        )
                        continue
                    reports[index] = report
                    executed += 1
                    pool_executed[pool_of[index]] += 1
                    metrics.cell_wall.observe(outcome.wall_s)
                    metrics.cells.labels(outcome="executed").inc()
                    if superseding:
                        metrics.cells.labels(outcome="superseded").inc()
                    update_pool_gauges()
                    emit()
                    if self.on_cell is not None:
                        self.on_cell(index, job, report)
                elif outcome.kind == "quarantined":
                    record = self.quarantine.record(
                        key=job.fingerprint,
                        index=index,
                        attempts=outcome.attempts,
                        reason=outcome.reason,
                        error=outcome.error,
                        meta={
                            **job.store_meta(),
                            "engine": job.engine,
                            "degraded": outcome.degraded,
                        },
                    )
                    quarantined_records.append(record)
                    update_pool_gauges()
                    emit()
                    if self.on_poison == "fail":
                        raise PoisonCellError(
                            f"cell {index} ({job.describe()}) "
                            f"quarantined after "
                            f"{outcome.attempts} attempts: "
                            f"{outcome.reason}: {outcome.error}",
                            index=index,
                            fingerprint=job.fingerprint,
                        )
                else:  # interrupted by shutdown
                    update_pool_gauges()
        finally:
            supervisor.close()
        emit(force=True)

        finished = [
            (job, report)
            for job, report in zip(jobs, reports)
            if report is not None
            and getattr(job, "family", "cell") == "cell"
        ]
        grid = grid_from_jobs(
            [job for job, _ in finished],
            [report for _, report in finished],
        )
        # Lifetime members whose curves all completed assemble into
        # SchemeComparisons, one per member, in member order.
        comparisons = []
        for member, begin, end in self._member_ranges():
            if getattr(member, "family", "cell") != "lifetime":
                continue
            curves = reports[begin:end]
            if all(curve is not None for curve in curves):
                comparisons.append(member.comparison(curves))
        sup = supervisor.stats
        return CampaignResult(
            spec=self.spec,
            jobs=tuple(jobs),
            reports=tuple(reports),
            grid=grid,
            stats=CampaignStats(
                total=len(jobs),
                executed=executed,
                resumed=resumed,
                thread_cells=pool_executed["thread"],
                process_cells=pool_executed["process"],
                wall_s=time.monotonic() - start,
                retried=sup["retried"],
                timeouts=sup["timeouts"],
                quarantined=sup["quarantined"],
                pool_rebuilds=sup["pool_rebuilds"],
                degraded=sup["degraded"],
                interrupted=sup["interrupted"],
            ),
            quarantined=tuple(quarantined_records),
            comparisons=tuple(comparisons),
        )


def run_campaign(
    spec: Union[CampaignSpec, Any],
    store: Union[ResultStore, str, Path],
    process_workers: int = 1,
    thread_workers: int = 1,
    progress: Optional[_ProgressFn] = None,
    progress_interval_s: float = 1.0,
    on_cell: Optional[_CellFn] = None,
    cell_timeout_s: Optional[float] = None,
    max_retries: int = 2,
    on_poison: str = "skip",
    fault_plan: Optional[FaultPlan] = None,
    engine_fallback: bool = True,
    shutdown: Optional[Any] = None,
) -> CampaignResult:
    """One-call façade over :class:`CampaignOrchestrator`."""
    return CampaignOrchestrator(
        spec,
        store,
        process_workers=process_workers,
        thread_workers=thread_workers,
        progress=progress,
        progress_interval_s=progress_interval_s,
        on_cell=on_cell,
        cell_timeout_s=cell_timeout_s,
        max_retries=max_retries,
        on_poison=on_poison,
        fault_plan=fault_plan,
        engine_fallback=engine_fallback,
        shutdown=shutdown,
    ).run()
