"""Layered end-to-end benchmark of the AERO reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload grid_write --seed 1 --seconds 20 --trace 0

Workloads: ``grid_write``, ``grid_read``, ``lifetime``, ``store`` (see
README.md in this directory). ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` adds traced one-worker passes
and prints the per-layer metrics instead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Lines before it, starting with ``#``, repeat the numbers
under the names of the campaign-level metrics they stand for. Spans of
the last traced pass and the run's context go to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: End-to-end metrics (every workload prints all of them) and units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "items_per_s_1w": "1/s",
    "peak_rss_mb": "MB",
}

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 11
#: Passes of each mode before the run may stop.
MIN_ROUNDS = 2
#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_LOOPS = 1_000_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: context for reading numbers
    taken on another machine (never used to scale gated metrics)."""
    begin = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - begin


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_probes(workload: str, seed: int, work: Path) -> Dict[str, float]:
    """Median phase times over ``SETUP_PROBES`` fresh interpreters."""
    walls: List[float] = []
    phases: Dict[str, List[float]] = {}
    for index in range(SETUP_PROBES):
        scratch = work / f"setup-{index}"
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(scratch)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - begin)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        for key, value in json.loads(line).items():
            phases.setdefault(key, []).append(value)
        shutil.rmtree(scratch, ignore_errors=True)
    out = {key: median(values) for key, values in phases.items()}
    out["setup_s"] = median(walls)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (MB).

    ``RUSAGE_CHILDREN`` reports the peak of the single largest child
    waited for, not a sum over children alive at the same time.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(workload: Any, seconds: float, modes: List[str], workers: int,
            traced_pass: Any) -> Dict[str, List[Any]]:
    """Cycle through ``modes``, one pass each, until the next pass would
    end after ``seconds`` (but run at least ``MIN_ROUNDS`` of each).

    Mode ``n`` is a pass at ``workers`` workers, ``1`` a pass at one
    worker, ``traced`` a one-worker pass under the tracer.
    """
    outcomes: Dict[str, List[Any]] = {mode: [] for mode in modes}
    begin = time.perf_counter()
    longest_pass = 0.0
    for index in itertools.count():
        elapsed = time.perf_counter() - begin
        if (index >= MIN_ROUNDS * len(modes)
                and elapsed + longest_pass > seconds):
            break
        mode = modes[index % len(modes)]
        pass_begin = time.perf_counter()
        if mode == "traced":
            outcomes[mode].append(traced_pass())
        else:
            outcomes[mode].append(
                workload.run_pass(workers if mode == "n" else 1)
            )
        longest_pass = max(longest_pass, time.perf_counter() - pass_begin)
    return outcomes


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository checkout (no src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args: argparse.Namespace, work: Path, out_dir: Path) -> int:
    import numpy

    import layers
    import workloads
    from tracing import Tracer

    workers = workloads.nproc()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": calibration_s(),
    }
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    workload.prepare()

    traced: Dict[str, Any] = {"passes": [], "samples": {}, "last": None}

    def traced_pass():
        with Tracer() as tracer:
            layers.install(tracer)
            outcome = workload.run_pass(1)
        traced["passes"].append(layers.pass_layers(
            tracer.spans, outcome.start, outcome.start + outcome.wall_s
        ))
        for key, values in layers.store_samples(tracer.spans).items():
            traced["samples"].setdefault(key, []).extend(values)
        traced["last"] = (tracer, outcome)
        return outcome

    modes = ["1", "traced", "n"] if args.trace else ["n", "1"]
    outcomes = measure(workload, args.seconds, modes, workers, traced_pass)
    # Checks that re-run work (the object-engine cell) come after the
    # timed passes so they cannot disturb them.
    check_attempted, check_failed = workload.checks()
    rss = peak_rss_mb()
    # Looked up after the RSS reading so `git` is not counted as a child.
    context["commit"] = git_commit()
    setup = setup_probes(args.workload, args.seed, work)

    every = [o for mode in modes for o in outcomes[mode]]
    digests = {o.digest for o in every}
    attempted = sum(o.attempted for o in every) + check_attempted + 1
    # Every pass, serial or parallel, traced or not, must simulate the
    # same outputs.
    failed = sum(o.failed for o in every) + check_failed + (
        0 if len(digests) == 1 else 1
    )

    def rate(mode: str) -> float:
        return median(o.items / o.wall_s for o in outcomes[mode])

    items_n, items_1 = rate("n"), rate("1")
    named = named_metrics(args.workload, outcomes, items_n, items_1)
    named.update({
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    })
    if args.trace:
        metrics = per_layer(workload, outcomes, traced, setup, workers,
                            items_n, items_1, failed / attempted)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "items_per_s": items_n,
            "items_per_s_1w": items_1,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS

    sim = workload.sim()
    sim_digest = next(iter(digests)) if len(digests) == 1 else "mismatch"
    print(f"# perfbench {json.dumps(context, sort_keys=True)}")
    for name, (value, unit) in named.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# passes {json.dumps({m: len(v) for m, v in outcomes.items()})}")
    print(f"# sim digest={sim_digest} " + " ".join(
        f"{k}={v:.6g}" for k, v in sim.items()
    ))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    artifact = {
        "context": context,
        "named": named,
        "setup_phases": setup,
        "sim": {"digest": sim_digest, **sim},
        "passes": {
            mode: [{"wall_s": o.wall_s, "items": o.items, "info": o.info}
                   for o in values]
            for mode, values in outcomes.items()
        },
        "result": result,
    }
    if traced["last"] is not None:
        tracer, outcome = traced["last"]
        artifact["spans"] = [s.as_dict(outcome.start) for s in tracer.spans]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact, default=str))
    print(json.dumps(result))
    return 0


def named_metrics(workload: str, outcomes, items_n: float,
                  items_1: float) -> Dict[str, Tuple[float, str]]:
    """The campaign-level metrics each workload stands for, with units."""
    if workload.startswith("grid"):
        return {"cells_per_s": (items_n, "cells/s"),
                "cells_per_s_1w": (items_1, "cells/s")}
    if workload == "lifetime":
        return {"lifetime_sweep_s": (
            median(o.wall_s for o in outcomes["1"]), "s")}
    ones = outcomes["1"]
    return {
        "store_put_per_s": (
            median(o.items / o.info["put_s"] for o in ones), "puts/s"),
        "store_resume_s": (median(o.info["resume_s"] for o in ones), "s"),
    }


def per_layer(workload, outcomes, traced, setup, workers, items_n, items_1,
              error_rate) -> Dict[str, float]:
    import layers

    out = layers.combine(traced["passes"], traced["samples"])
    last_n = outcomes["n"][-1].info
    grid = "thread_cells" in last_n
    out.update({
        "campaign.parallel_efficiency": (
            items_n / (workers * items_1) if grid else 0.0
        ),
        **{
            f"campaign.{key}": float(last_n.get(key, 0))
            for key in ("thread_cells", "process_cells", "retried",
                        "quarantined")
        },
        "store.bytes_per_record": (
            median(o.info["store_bytes"] / o.info["records"]
                   for o in outcomes["traced"])
            if "store_bytes" in last_n else 0.0
        ),
        "harness.plan_s": setup["plan_s"],
        "cli.import_s": setup["import_s"],
        "trace.overhead_frac": (
            median(o.wall_s for o in outcomes["traced"])
            / median(o.wall_s for o in outcomes["1"]) - 1.0
        ),
        "error_rate": error_rate,
        **workload.sim(),
    })
    return {name: out[name] for name in layers.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
