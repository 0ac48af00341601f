"""Cell supervision: timeouts, retry with backoff, quarantine.

:class:`CellSupervisor` is the one fan-out stack: the campaign
orchestrator and :class:`~repro.harness.runner.GridRunner` both run
their pending jobs on its supervised workers (from
:mod:`repro.harness.executors`). It treats every failure mode as an
*event* with a recovery policy:

* a cell raising → retried with exponential backoff and deterministic
  jitter (seeded through :func:`repro.rng.derive`, so two runs of a
  flaky campaign schedule identical retries);
* a cell exceeding the wall-clock timeout → its process worker is
  SIGKILLed (thread workers are abandoned), a replacement worker is
  spawned, the cell is retried;
* a worker dying outright (``os._exit``, OOM-kill, segfault) → the
  pool is rebuilt and the in-flight cell retried;
* a cell exhausting its budget on the kernel engine → optionally
  degraded to one object-engine attempt before giving up;
* a cell exhausting everything → returned as ``quarantined`` so the
  campaign records it and *finishes* instead of aborting.

The orchestrator feeds persist failures back with :meth:`requeue`
(a put that crashed mid-append is a cell failure too), and a shutdown
event stops admission while in-flight cells drain.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, InjectedFault
from repro.faults import FaultPlan
from repro.faults.plan import KILL_WORKER_EXIT
from repro.harness.executors import (
    ProcessWorker,
    ThreadWorker,
    WorkerEvent,
)
from repro.harness.runner import execute_job
from repro.rng import derive
from repro.telemetry import get_default_registry, scoped_registry
from repro.telemetry.instruments import campaign_metrics, fault_metrics


def _run_cell_task(task: Tuple[int, int, str, Any, FaultPlan]):
    """Worker-side job execution with fault evaluation.

    Module-level so process workers can pickle it; the fault plan's
    cell predicates are pure functions of ``(cell, attempt, engine)``,
    so a forked worker needs no shared state to evaluate them.

    Process workers run the job under a fresh telemetry registry and
    return its snapshot as a fourth tuple element, so metrics recorded
    inside the child (replay counters, latency histograms) reach the
    coordinator; thread workers share the parent registry and return
    ``None`` there.
    """
    index, attempt, worker_kind, job, plan = task
    if plan:
        delay, kill = plan.cell_fault(index, attempt, job.engine)
        if delay > 0:
            time.sleep(delay)
        if kill:
            if worker_kind == "process":
                import os

                os._exit(KILL_WORKER_EXIT)  # a real, unreportable death
            raise InjectedFault(
                f"injected kill_worker at cell {index} attempt {attempt}",
                kind="kill_worker",
            )
    begin = time.perf_counter()
    if worker_kind == "process":
        with scoped_registry() as registry:
            report = execute_job(job)
        snapshot = registry.snapshot()
    else:
        report = execute_job(job)
        snapshot = None
    return index, report, time.perf_counter() - begin, snapshot


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    Attempt ``n`` (1-based) failing waits
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor in
    ``[0.5, 1.5)`` derived from ``(seed, fingerprint, n)`` — spread
    enough to de-thunder retries, reproducible enough to replay.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff durations must be >= 0")

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        base = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        jitter = 0.5 + (
            derive(self.seed, "backoff", fingerprint, attempt) % 1000
        ) / 1000.0
        return base * jitter


@dataclass(frozen=True)
class CellOutcome:
    """One resolved cell, however it resolved.

    ``kind`` is ``"done"`` (report attached), ``"quarantined"`` (the
    cell exhausted its budget; ``reason``/``error`` say why) or
    ``"interrupted"`` (shutdown before the cell could run).
    """

    index: int
    job: Any
    kind: str
    report: Any = None
    wall_s: float = 0.0
    attempts: int = 0
    degraded: bool = False
    reason: str = ""
    error: str = ""


class _Cell:
    __slots__ = ("job", "pool", "attempts", "degraded")

    def __init__(self, job: Any, pool: str):
        self.job = job
        self.pool = pool
        self.attempts = 0
        self.degraded = False


class CellSupervisor:
    """Supervise cell execution across killable worker pools.

    Usage: ``submit`` every cell, then drain ``next_outcome()`` until
    it returns ``None``. Thread-safety: ``submit``/``next_outcome``/
    ``requeue`` are called from the coordinating thread only; the
    shared event queue is the sole cross-thread channel.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        process_workers: int = 1,
        thread_workers: int = 1,
        fault_plan: Optional[FaultPlan] = None,
        engine_fallback: bool = True,
        shutdown: Optional[Any] = None,
    ):
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive")
        self.policy = policy or RetryPolicy()
        self.cell_timeout_s = cell_timeout_s
        self.plan = fault_plan or FaultPlan()
        self.engine_fallback = engine_fallback
        self.shutdown = shutdown
        self.events: "queue.Queue[WorkerEvent]" = queue.Queue()
        self._limits = {"process": process_workers, "thread": thread_workers}
        self._cells: Dict[int, _Cell] = {}
        self._pending: Dict[str, Deque[int]] = {
            "process": deque(), "thread": deque(),
        }
        self._retry_heap: List[Tuple[float, int, int]] = []
        self._inflight: Dict[int, Tuple[int, str, Optional[float]]] = {}
        self._workers: Dict[str, Any] = {}
        self._idle: Dict[str, List[Any]] = {"process": [], "thread": []}
        self._ready: Deque[CellOutcome] = deque()
        self._task_ids = itertools.count()
        self._worker_seq = itertools.count()
        self._outstanding = 0
        self.stats = {
            "retried": 0, "timeouts": 0, "quarantined": 0,
            "pool_rebuilds": 0, "degraded": 0, "interrupted": 0,
        }

    # --- public API ---------------------------------------------------------

    def submit(self, index: int, job: Any, pool: str) -> None:
        """Enqueue one job (grid cell or lifetime curve) on the
        ``process`` or ``thread`` pool."""
        if pool not in self._pending:
            raise ConfigError(f"unknown pool {pool!r}")
        self._cells[index] = _Cell(job, pool)
        self._pending[pool].append(index)
        self._outstanding += 1

    def requeue(self, index: int, reason: str, error: str = "") -> None:
        """Feed back a persist-stage failure as a cell failure.

        The orchestrator calls this when ``store.put`` raised an
        :class:`InjectedFault` *after* the cell itself succeeded — the
        result is not durable, so the cell runs again.
        """
        self._outstanding += 1
        self._handle_failure(index, reason, error)

    def pending_count(self, pool: str) -> int:
        return len(self._pending[pool]) + sum(
            1
            for _, _, idx in self._retry_heap
            if self._cells[idx].pool == pool
        )

    def inflight_count(self, pool: str) -> int:
        return sum(
            1
            for _, name, _ in self._inflight.values()
            if name in self._workers and self._workers[name].kind == pool
        )

    def worker_count(self, pool: str) -> int:
        return sum(
            1 for w in self._workers.values() if w.kind == pool
        )

    def next_outcome(self) -> Optional[CellOutcome]:
        """Block until one cell resolves; ``None`` when all have."""
        while True:
            if self._ready:
                self._outstanding -= 1
                return self._ready.popleft()
            if self._outstanding == 0:
                return None
            if self._shutting_down():
                self._interrupt_pending()
                if self._ready:
                    continue
                if not self._inflight:
                    # Nothing running, nothing schedulable: the retry
                    # heap's survivors are interrupted too.
                    continue
            else:
                self._dispatch()
            try:
                event = self.events.get(timeout=self._wait_s())
            except queue.Empty:
                self._expire_timeouts()
                continue
            self._handle_event(event)

    def close(self) -> None:
        """Tear every worker down (clean sentinel, bounded join)."""
        for worker in list(self._workers.values()):
            worker.close()
        self._workers.clear()
        self._idle = {"process": [], "thread": []}

    # --- scheduling ---------------------------------------------------------

    def _shutting_down(self) -> bool:
        return self.shutdown is not None and self.shutdown.is_set()

    def _now(self) -> float:
        return time.monotonic()

    def _wait_s(self) -> float:
        horizon = self._now() + 0.5
        for _, _, deadline in self._inflight.values():
            if deadline is not None:
                horizon = min(horizon, deadline)
        if self._retry_heap:
            horizon = min(horizon, self._retry_heap[0][0])
        return max(0.01, horizon - self._now())

    def _dispatch(self) -> None:
        now = self._now()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, index = heapq.heappop(self._retry_heap)
            self._pending[self._cells[index].pool].append(index)
        for pool in ("process", "thread"):
            while self._pending[pool]:
                worker = self._checkout_worker(pool)
                if worker is None:
                    break
                index = self._pending[pool].popleft()
                self._start_attempt(index, worker)

    def _checkout_worker(self, pool: str):
        idle = self._idle[pool]
        while idle:
            worker = idle.pop()
            if worker.alive:
                return worker
            self._replace_worker(worker, spawn=False)
        if self.worker_count(pool) < self._limits[pool]:
            return self._spawn_worker(pool)
        return None

    def _spawn_worker(self, pool: str):
        name = f"{pool}-worker-{next(self._worker_seq)}"
        cls = ProcessWorker if pool == "process" else ThreadWorker
        worker = cls(name, _run_cell_task, self.events)
        self._workers[name] = worker
        return worker

    def _replace_worker(self, worker, spawn: bool = True) -> None:
        """Drop a dead/abandoned worker; optionally spawn its successor."""
        if self._workers.pop(worker.name, None) is None:
            return
        self.stats["pool_rebuilds"] += 1
        campaign_metrics().pool_rebuilds.labels(pool=worker.kind).inc()
        if spawn:
            self._idle[worker.kind].append(self._spawn_worker(worker.kind))

    def _start_attempt(self, index: int, worker) -> None:
        cell = self._cells[index]
        cell.attempts += 1
        if self.plan:
            # Cell faults are recorded here, in the parent — a worker
            # that os._exit()s cannot report its own injection.
            delay, kill = self.plan.cell_fault(
                index, cell.attempts, cell.job.engine
            )
            metrics = fault_metrics()
            if delay > 0:
                metrics.injected.labels(kind="slow_cell").inc()
            if kill:
                metrics.injected.labels(kind="kill_worker").inc()
        task_id = next(self._task_ids)
        task = (index, cell.attempts, worker.kind, cell.job, self.plan)
        try:
            worker.submit(task_id, task)
        except OSError:
            # Died while idle; its queued "died" event will be stale.
            cell.attempts -= 1
            self._replace_worker(worker)
            self._pending[cell.pool].append(index)
            return
        deadline = (
            self._now() + self.cell_timeout_s
            if self.cell_timeout_s is not None
            else None
        )
        self._inflight[task_id] = (index, worker.name, deadline)

    def _expire_timeouts(self) -> None:
        now = self._now()
        expired = [
            (task_id, index, name)
            for task_id, (index, name, deadline) in self._inflight.items()
            if deadline is not None and deadline <= now
        ]
        for task_id, index, name in expired:
            del self._inflight[task_id]
            self.stats["timeouts"] += 1
            campaign_metrics().timeouts.inc()
            worker = self._workers.get(name)
            if worker is not None:
                worker.kill()
                self._replace_worker(worker)
            self._handle_failure(
                index,
                "timeout",
                f"cell {index} exceeded {self.cell_timeout_s:.3f}s",
            )

    def _interrupt_pending(self) -> None:
        drained: List[int] = []
        for pool in ("process", "thread"):
            drained.extend(self._pending[pool])
            self._pending[pool].clear()
        if not self._inflight:
            drained.extend(index for _, _, index in self._retry_heap)
            self._retry_heap.clear()
        for index in drained:
            cell = self._cells[index]
            self.stats["interrupted"] += 1
            self._ready.append(
                CellOutcome(
                    index=index,
                    job=cell.job,
                    kind="interrupted",
                    attempts=cell.attempts,
                    degraded=cell.degraded,
                    reason="shutdown",
                )
            )

    # --- event handling -----------------------------------------------------

    def _handle_event(self, event: WorkerEvent) -> None:
        if event.kind == "died":
            worker = self._workers.get(event.worker)
            if worker is None:
                return  # we killed it deliberately; already handled
            self._idle[worker.kind] = [
                w for w in self._idle[worker.kind] if w.name != worker.name
            ]
            self._replace_worker(worker)
            entry = self._inflight.pop(event.task_id, None) if (
                event.task_id >= 0
            ) else None
            if entry is not None:
                index = entry[0]
                self._handle_failure(
                    index,
                    "worker_death",
                    f"worker {event.worker} died "
                    f"(exit code {event.payload})",
                )
            return
        entry = self._inflight.pop(event.task_id, None)
        if entry is None:
            return  # late report from an abandoned thread worker
        index = entry[0]
        worker = self._workers.get(event.worker)
        if worker is not None and worker.alive:
            self._idle[worker.kind].append(worker)
        if event.kind == "result":
            _, report, wall_s = event.payload[:3]
            snapshot = event.payload[3] if len(event.payload) > 3 else None
            if snapshot:
                # Process workers ship their telemetry home with the
                # result; merge before the outcome becomes visible.
                get_default_registry().merge_snapshot(snapshot)
            cell = self._cells[index]
            self._ready.append(
                CellOutcome(
                    index=index,
                    job=cell.job,
                    kind="done",
                    report=report,
                    wall_s=wall_s,
                    attempts=cell.attempts,
                    degraded=cell.degraded,
                )
            )
            return
        exc_type, message, _trace = event.payload
        self._handle_failure(index, "error", f"{exc_type}: {message}")

    def _handle_failure(self, index: int, reason: str, error: str) -> None:
        cell = self._cells[index]
        budget = self.policy.max_retries + 1
        if cell.attempts < budget:
            self.stats["retried"] += 1
            campaign_metrics().retries.labels(reason=reason).inc()
            delay = self.policy.backoff_s(
                cell.job.fingerprint, max(1, cell.attempts)
            )
            heapq.heappush(
                self._retry_heap, (self._now() + delay, index, index)
            )
            return
        if (
            self.engine_fallback
            and not cell.degraded
            and cell.pool == "thread"
            and cell.job.engine != "object"
            and getattr(cell.job, "family", "cell") == "cell"
        ):
            # Graceful degradation: exactly one object-engine attempt
            # on the process pool before giving the cell up (attempts
            # is already at budget, so the next failure quarantines).
            # The cell fingerprint excludes the engine, so the store
            # key is unchanged; lifetime jobs are excluded because
            # their fingerprints pin the resolved engine — swapping it
            # would silently answer a different question.
            cell.job = replace(cell.job, engine="object")
            cell.pool = "process"
            cell.degraded = True
            self.stats["degraded"] += 1
            metrics = campaign_metrics()
            metrics.engine_fallbacks.inc()
            metrics.retries.labels(reason=reason).inc()
            self.stats["retried"] += 1
            heapq.heappush(
                self._retry_heap,
                (self._now() + self.policy.backoff_base_s, index, index),
            )
            return
        self.stats["quarantined"] += 1
        campaign_metrics().quarantined.inc()
        self._ready.append(
            CellOutcome(
                index=index,
                job=cell.job,
                kind="quarantined",
                attempts=cell.attempts,
                degraded=cell.degraded,
                reason=reason,
                error=error,
            )
        )
