"""Shared benchmark configuration.

Each benchmark regenerates one table or figure of the paper: it runs
the experiment once (``benchmark.pedantic`` with a single round — these
are reproduction campaigns, not microbenchmarks), prints the
paper-shaped rows, and asserts the qualitative result (who wins, by
roughly what factor, where crossovers fall).

Scale: the default sizes keep the whole suite in the minutes range on
a laptop. Set ``REPRO_BENCH_FULL=1`` for the full 11-workload,
3-setpoint grid. The grid-shaped campaigns run through
:class:`repro.harness.GridRunner`: set ``REPRO_BENCH_WORKERS=n`` to
fan cells out over ``n`` processes and ``REPRO_BENCH_CACHE=<dir>`` to
persist finished cells so interrupted or repeated campaigns resume
instead of recomputing (results are bit-identical either way).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import WORKLOADS
from repro.harness import (
    GridRunner,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


@pytest.fixture
def once(benchmark):
    """Run the campaign exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture(scope="session")
def bench_workloads():
    """Workload subset for system-level benches (full grid via env).

    The full grid is registry-derived, so plugin workloads registered
    before the session automatically join full-scale campaigns.
    """
    if full_scale():
        return WORKLOADS.keys()
    return ("ali.A", "ali.B", "hm", "prxy", "usr")


@pytest.fixture(scope="session")
def bench_requests():
    return 4000 if full_scale() else 900


@pytest.fixture(scope="session")
def bench_executor():
    """Cell executor for grid campaigns (serial unless REPRO_BENCH_WORKERS>1).

    ``REPRO_BENCH_EXECUTOR=thread`` swaps the worker processes for
    threads. Threads skip the pickle round-trip but share the GIL;
    measured on 2 CPUs, two threads were slower than one worker on
    both grid cells and lifetime curves.
    """
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    kind = os.environ.get("REPRO_BENCH_EXECUTOR", "process")
    if kind not in ("process", "thread"):
        from repro.errors import ConfigError

        raise ConfigError(
            f"unknown REPRO_BENCH_EXECUTOR {kind!r}; "
            "choose 'process' or 'thread'"
        )
    if workers > 1:
        if kind == "thread":
            return ThreadExecutor(workers)
        return ProcessExecutor(workers)
    return SerialExecutor()


@pytest.fixture
def bench_runner(bench_executor):
    """Grid runner honouring the worker and cache-directory env knobs."""
    return GridRunner(
        executor=bench_executor,
        cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None,
    )
