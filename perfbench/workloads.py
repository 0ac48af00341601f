"""The benchmark's four workloads, driven through ``repro``'s public API.

Every workload is a closed batch job: one *pass* runs its whole input
once and returns a :class:`PassOutcome`. The runner (``run.py``) times
passes at ``nproc`` workers and at one worker, and, in the traced run,
one-worker passes under a :class:`~tracing.Tracer`. Inputs are pure
functions of the workload seed; the simulator receives only them.

Import this module after ``repro.experiments.cli``: the set-up probe
times that import on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.campaign import CampaignSpec, ShardedResultStore, run_campaign
from repro.harness.cells import PAPER_PEC_POINTS, PAPER_SCHEMES
from repro.harness.executors import ThreadExecutor
from repro.harness.runner import execute_cell
from repro.lifetime.comparison import compare_schemes
from repro.lifetime.spec import LifetimeSpec
from repro.nand.chip_types import profile_by_name


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class PassOutcome:
    """One pass: wall time, work done, failures, simulated outputs."""

    start: float
    wall_s: float
    items: int
    attempted: int
    failed: int
    digest: str
    #: Workload-specific timings and counters (CampaignStats fields,
    #: put/resume split, store bytes).
    info: Dict[str, Any] = field(default_factory=dict)


def sim_counts(reports: Sequence[Any]) -> Dict[str, float]:
    """Simulated statistics of a set of replay reports (not gated)."""
    reads = [v for r in reports for v in r.reads.values]
    return {
        "sim.erases": float(sum(r.erases for r in reports)),
        "sim.gc_page_moves": float(sum(r.gc_page_moves for r in reports)),
        "sim.waf": float(np.mean([r.extra.get("waf", 1.0) for r in reports])),
        "sim.read_p9999_us": (
            float(np.percentile(reads, 99.99)) if reads else 0.0
        ),
    }


class Workload:
    """Base: one input set with a seed and a scratch directory."""

    #: Whether set-up opens a result store (the set-up probe's last phase).
    opens_store = True

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work_dir / f"pass-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def plan(self) -> Any:
        """Resolve the workload to jobs and fingerprints (set-up work)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate inputs that are not part of set-up (untimed)."""

    def run_pass(self, workers: int) -> PassOutcome:
        raise NotImplementedError

    def checks(self) -> Tuple[int, int]:
        """Run-level checks after the passes: ``(attempted, failed)``."""
        return 0, 0

    def sim(self) -> Dict[str, float]:
        raise NotImplementedError


class GridWorkload(Workload):
    """A (5 schemes x 3 PECs x 2 workloads) campaign into a fresh store."""

    def __init__(self, seed: int, work_dir: Path,
                 workloads: Tuple[str, ...], requests: int,
                 schemes: Tuple[str, ...] = PAPER_SCHEMES,
                 pec_points: Tuple[int, ...] = PAPER_PEC_POINTS):
        super().__init__(seed, work_dir)
        self.spec = CampaignSpec(
            schemes=schemes,
            pec_points=pec_points,
            workloads=workloads,
            requests=requests,
            seed=seed,
        )
        self.reports: List[Any] = []

    def plan(self) -> List[str]:
        return [job.fingerprint for job in self.spec.jobs()]

    def run_pass(self, workers: int) -> PassOutcome:
        root = self.fresh_dir()
        begin = time.perf_counter()
        result = run_campaign(
            self.spec, root, process_workers=workers, thread_workers=workers
        )
        wall = time.perf_counter() - begin
        stats = result.stats
        incomplete = sum(
            1
            for job, report in zip(result.jobs, result.reports)
            if report is None or report.requests_completed != job.requests
        )
        failed = (
            incomplete + stats.quarantined + stats.retried + stats.interrupted
        )
        reports = [r for r in result.reports if r is not None]
        self.reports = list(result.reports)
        info = dataclasses.asdict(stats)
        info["store_bytes"] = dir_bytes(root)
        info["records"] = len(reports)
        shutil.rmtree(root, ignore_errors=True)
        return PassOutcome(
            start=begin,
            wall_s=wall,
            items=stats.executed,
            attempted=stats.total,
            failed=failed,
            digest=digest([r.to_json_dict() for r in reports]),
            info=info,
        )

    def checks(self) -> Tuple[int, int]:
        """One sampled cell: kernel and object engines report equally,
        and both equal the campaign's report for that cell."""
        jobs = self.spec.jobs()
        index = random.Random(self.seed).randrange(len(jobs))
        job = jobs[index]
        kernel = execute_cell(dataclasses.replace(job, engine="kernel"))
        obj = execute_cell(dataclasses.replace(job, engine="object"))
        ok = kernel.to_json_dict() == obj.to_json_dict()
        stored = self.reports[index] if self.reports else None
        ok = ok and stored is not None and (
            stored.to_json_dict() == obj.to_json_dict()
        )
        return 1, 0 if ok else 1

    def sim(self) -> Dict[str, float]:
        return sim_counts([r for r in self.reports if r is not None])


class LifetimeWorkload(Workload):
    """The five-scheme Figure 13 sweep through ``compare_schemes``."""

    profile = "3D-TLC-48L"
    block_count = 1024
    step = 50
    max_pec = 12000
    opens_store = False

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.curves: Dict[str, Any] = {}

    def spec(self) -> LifetimeSpec:
        return LifetimeSpec(
            profile=self.profile,
            block_count=self.block_count,
            step=self.step,
            seed=self.seed,
            max_pec=self.max_pec,
        )

    def plan(self) -> List[str]:
        profile_by_name(self.profile)
        return [job.fingerprint for job in self.spec().jobs()]

    def run_pass(self, workers: int) -> PassOutcome:
        executor = ThreadExecutor(workers) if workers > 1 else None
        spec = self.spec()
        begin = time.perf_counter()
        comparison = compare_schemes(
            profile_by_name(self.profile),
            scheme_keys=spec.schemes,
            block_count=self.block_count,
            step=self.step,
            seed=self.seed,
            max_pec=self.max_pec,
            executor=executor,
        )
        wall = time.perf_counter() - begin
        curves = comparison.curves
        self.curves = curves
        failed = sum(1 for c in curves.values() if c.lifetime_pec is None)
        # The paper's headline: AERO outlives the baseline ISPE.
        attempted = len(curves) + 1
        if not (
            failed == 0
            and curves["aero"].lifetime_pec > curves["baseline"].lifetime_pec
        ):
            failed += 1
        return PassOutcome(
            start=begin,
            wall_s=wall,
            items=len(curves),
            attempted=attempted,
            failed=failed,
            digest=digest({k: c.to_json_dict() for k, c in curves.items()}),
            info={"lifetime_pec": {
                k: c.lifetime_pec for k, c in curves.items()
            }},
        )

    def sim(self) -> Dict[str, float]:
        erases = sum(
            self.block_count * (c.pec_points[-1] // self.step)
            for c in self.curves.values()
        )
        return {
            "sim.erases": float(erases),
            "sim.gc_page_moves": 0.0,
            "sim.waf": 0.0,
            "sim.read_p9999_us": 0.0,
        }


class StoreWorkload(Workload):
    """Put real cell reports into a fresh store, then resume it cold."""

    #: Keys are real cell fingerprints: 5 schemes x ``pec_count`` PECs x
    #: 2 traces.
    pec_count = 30
    #: Real reports of ``requests``-request cells, spread over the keys.
    distinct_reports = 10
    requests = 900

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        pecs = tuple(100 * (i + 1) for i in range(self.pec_count))
        shape = dict(workloads=("ali.A", "rsrch"), requests=self.requests)
        self.present = CampaignSpec(pec_points=pecs, seed=seed, **shape)
        # A disjoint key set: the same shape under another seed.
        self.absent = CampaignSpec(pec_points=pecs, seed=seed + 1, **shape)
        self.sources = CampaignSpec(seed=seed, **shape).jobs()[
            :self.distinct_reports
        ]
        self.reports: List[Any] = []
        self.keys: List[Tuple[str, Dict[str, Any]]] = []
        self.missing: List[str] = []

    def plan(self) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[str]]:
        keys = [(j.fingerprint, j.store_meta()) for j in self.present.jobs()]
        missing = [j.fingerprint for j in self.absent.jobs()]
        return keys, missing

    def prepare(self) -> None:
        self.keys, self.missing = self.plan()
        self.reports = [execute_cell(job) for job in self.sources]

    def report_for(self, index: int) -> Any:
        return self.reports[index % len(self.reports)]

    def run_pass(self, workers: int) -> PassOutcome:
        root = self.fresh_dir()
        items = list(enumerate(self.keys))
        shares = [items[w::workers] for w in range(workers)]
        absent_shares = [self.missing[w::workers] for w in range(workers)]

        def put_share(store, share):
            for index, (key, meta) in share:
                store.put(key, self.report_for(index), meta=meta)

        def resume_share(store, share, absent):
            found = [(i, key in store, store.get(key)) for i, (key, _) in share]
            lost = [(key in store, store.get(key)) for key in absent]
            return found, lost

        pool = ThreadPoolExecutor(workers) if workers > 1 else None
        try:
            begin = time.perf_counter()
            store = ShardedResultStore(root)
            if pool is None:
                put_share(store, shares[0])
            else:
                list(pool.map(put_share, [store] * workers, shares))
            put_done = time.perf_counter()
            cold = ShardedResultStore(root)
            if pool is None:
                answers = [resume_share(cold, shares[0], absent_shares[0])]
            else:
                answers = list(pool.map(
                    resume_share, [cold] * workers, shares, absent_shares
                ))
            end = time.perf_counter()
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        failed = 0
        read_back: List[Any] = [None] * len(self.keys)
        for found, lost in answers:
            for index, contained, report in found:
                read_back[index] = (
                    None if report is None else report.to_json_dict()
                )
                if not contained or read_back[index] != (
                    self.report_for(index).to_json_dict()
                ):
                    failed += 1
            failed += sum(1 for contained, report in lost
                          if contained or report is not None)
        records = len(self.keys)
        info = {
            "put_s": put_done - begin,
            "resume_s": end - put_done,
            "store_bytes": dir_bytes(root),
            "records": records,
        }
        shutil.rmtree(root, ignore_errors=True)
        return PassOutcome(
            start=begin,
            wall_s=end - begin,
            items=records,
            # Every put, plus an `in` and a `get` per present and absent key.
            attempted=records + 2 * (records + len(self.missing)),
            failed=failed,
            # What the cold store returned, in key order.
            digest=digest(read_back),
            info=info,
        )

    def sim(self) -> Dict[str, float]:
        return sim_counts(self.reports)


#: Workload name -> factory ``(seed, work_dir) -> Workload``.
WORKLOADS = {
    # Write-dominated traces (7-9% reads): the erase ladder and the
    # per-erase telemetry hook carry the cell.
    "grid_write": lambda seed, work: GridWorkload(
        seed, work, workloads=("ali.A", "rsrch"), requests=600
    ),
    # Read-dominated traces (91-95% reads, ~15x fewer erases): the same
    # replay kernel on its read path; 2000 requests match grid_write's
    # pass length.
    "grid_read": lambda seed, work: GridWorkload(
        seed, work, workloads=("usr", "ali.E"), requests=2000
    ),
    "lifetime": LifetimeWorkload,
    "store": StoreWorkload,
}
