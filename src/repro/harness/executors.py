"""Worker-count values and the supervised workers that honour them.

:class:`SerialExecutor`, :class:`ProcessExecutor` and
:class:`ThreadExecutor` carry no execution logic. Each is a plain
value — a pool kind plus a validated ``workers`` count — that tells
:class:`~repro.harness.runner.GridRunner` where to run its pending
jobs: in the calling process (serial, or a single job), or on that
many supervised workers of the named pool under a
:class:`~repro.campaign.supervisor.CellSupervisor`.

Determinism: every job in this library is a pure function of its
arguments (all randomness flows from explicit seeds through
:func:`repro.rng.derive`), so serial, process and thread runs produce
bit-identical results — parallelism changes wall-clock time, never
outcomes.

The supervised worker primitives (:class:`ProcessWorker`,
:class:`ThreadWorker`) are single workers that a supervisor can kill,
observe dying, and replace: a worker's death becomes a ``died``
message on a queue rather than an abort.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import traceback
from typing import Any, Callable, Optional, Tuple

from repro.errors import ConfigError


class SerialExecutor:
    """Run jobs one after another in the calling process (default)."""

    pool: Optional[str] = None
    workers = 1

    def __repr__(self) -> str:
        return "SerialExecutor()"


class _PoolExecutor:
    """``workers`` supervised workers of the ``pool`` kind."""

    pool = ""

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError(f"need at least 1 worker, got {workers}")
        self.workers = workers

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class ProcessExecutor(_PoolExecutor):
    """Fan jobs out across ``workers`` OS processes.

    Jobs and results are pickled across the process boundary; telemetry
    recorded inside a worker is shipped home with each result and
    merged into the coordinator's registry.
    """

    pool = "process"


class ThreadExecutor(_PoolExecutor):
    """Fan jobs out across ``workers`` threads in this process.

    Threads share memory, so there is no pickle tax on job arguments or
    results, but jobs only overlap where they release the GIL. Measured
    on 2 CPUs, two threads were slower than one worker on both job
    families: 12.8 vs 14.2 grid cells/s, and 6.1 vs 9.2 lifetime
    curves/s on the kernel engine.
    """

    pool = "thread"


# --- supervised workers ------------------------------------------------------


class WorkerEvent:
    """One message from a supervised worker to its supervisor.

    ``kind`` is ``"result"`` (payload = the task's return value),
    ``"error"`` (payload = ``(exc_type_name, message, traceback_text)``)
    or ``"died"`` (the worker process exited without reporting;
    payload = its exit code). ``task_id`` is ``-1`` for a worker that
    died idle.
    """

    __slots__ = ("kind", "worker", "task_id", "payload")

    def __init__(self, kind: str, worker: str, task_id: int, payload: Any):
        self.kind = kind
        self.worker = worker
        self.task_id = task_id
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"WorkerEvent({self.kind!r}, worker={self.worker!r}, "
            f"task_id={self.task_id})"
        )


def _error_payload(exc: BaseException) -> Tuple[str, str, str]:
    return (type(exc).__name__, str(exc), traceback.format_exc())


def _process_worker_main(fn: Callable[[Any], Any], conn) -> None:
    """Child-process loop: recv ``(task_id, task)``, send results back.

    A ``None`` message is the clean-shutdown sentinel. Exceptions are
    reduced to strings — a failing task must never take the reporting
    channel down with an unpicklable exception object.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, task = message
        try:
            result = fn(task)
        except BaseException as exc:
            try:
                conn.send(("error", task_id, _error_payload(exc)))
            except (OSError, ValueError):
                break
        else:
            conn.send(("result", task_id, result))
    conn.close()


class ProcessWorker:
    """One killable OS-process worker reporting onto a shared queue.

    Unlike a pool, death is an *event*, not an abort: if the child
    exits without reporting — ``os._exit``, SIGKILL, a segfault — the
    reader thread turns the broken pipe into a ``died`` event carrying
    the in-flight task id, and the supervisor replaces the worker.
    ``fn`` and tasks must be picklable (module-level function).
    """

    kind = "process"

    def __init__(
        self,
        name: str,
        fn: Callable[[Any], Any],
        events: "queue.Queue[WorkerEvent]",
    ):
        ctx = mp.get_context()
        self.name = name
        self.events = events
        self.task_id: Optional[int] = None
        self._closed = False
        parent, child = ctx.Pipe()
        self._conn = parent
        self._proc = ctx.Process(
            target=_process_worker_main,
            args=(fn, child),
            name=name,
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._reader = threading.Thread(
            target=self._read, name=f"{name}-reader", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        while True:
            try:
                kind, task_id, payload = self._conn.recv()
            except (EOFError, OSError):
                break
            self.task_id = None
            self.events.put(WorkerEvent(kind, self.name, task_id, payload))
        in_flight = self.task_id
        self.task_id = None
        if not self._closed:
            self._proc.join(timeout=5.0)
            self.events.put(
                WorkerEvent(
                    "died",
                    self.name,
                    -1 if in_flight is None else in_flight,
                    self._proc.exitcode,
                )
            )

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    def submit(self, task_id: int, task: Any) -> None:
        """Hand the worker one task; raises ``OSError`` if it is dead
        (the pending ``died`` event still reports the prior task)."""
        self.task_id = task_id
        try:
            self._conn.send((task_id, task))
        except (OSError, ValueError):
            self.task_id = None
            raise OSError(f"worker {self.name} is not accepting tasks")

    def kill(self) -> None:
        """SIGKILL the child — the timeout enforcement primitive."""
        self._proc.kill()

    def close(self) -> None:
        """Clean shutdown: sentinel, bounded join, then force-kill."""
        self._closed = True
        try:
            self._conn.send(None)
        except (OSError, ValueError):
            pass
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._conn.close()


class ThreadWorker:
    """One thread worker reporting onto a shared queue.

    Threads cannot be killed, so :meth:`kill` *abandons*: the thread
    keeps running its current task to completion, but the supervisor
    drops its name from the live set, so whatever it eventually
    reports lands as an event for an unknown task and is discarded.
    """

    kind = "thread"

    def __init__(
        self,
        name: str,
        fn: Callable[[Any], Any],
        events: "queue.Queue[WorkerEvent]",
    ):
        self.name = name
        self.events = events
        self.task_id: Optional[int] = None
        self.abandoned = False
        self._fn = fn
        self._inbox: "queue.Queue[Any]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            message = self._inbox.get()
            if message is None:
                return
            task_id, task = message
            try:
                result = self._fn(task)
            except BaseException as exc:
                kind, payload = "error", _error_payload(exc)
            else:
                kind, payload = "result", result
            self.task_id = None
            self.events.put(WorkerEvent(kind, self.name, task_id, payload))

    @property
    def alive(self) -> bool:
        return self._thread.is_alive() and not self.abandoned

    def submit(self, task_id: int, task: Any) -> None:
        self.task_id = task_id
        self._inbox.put((task_id, task))

    def kill(self) -> None:
        self.abandoned = True

    def close(self) -> None:
        self._inbox.put(None)
