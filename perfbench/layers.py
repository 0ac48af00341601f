"""Where the traced run puts its spans, and the per-layer metrics.

Each target is patched at the attribute its caller resolves at call
time: ``run_workload_cell`` looks ``build_ssd`` up in
``repro.harness.cells`` and imports the replay kernels from
``repro.kernels.cell`` on every call; the campaign supervisor's worker
calls ``execute_job`` through ``repro.campaign.supervisor``; scheme
``erase`` and ``FtlStats.record_erase`` are methods, so the class
attribute is the one to wrap.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Any, Dict, List, Tuple

import numpy as np

from tracing import Span, Tracer, coverage, self_times

LIFETIME_SCHEMES = ("baseline", "iispe", "dpes", "aero_cons", "aero")


def _requests(span: Span, args: tuple, report: Any) -> None:
    span.attrs["requests"] = report.requests_completed


def _pulses(span: Span, args: tuple, result: Any) -> None:
    span.attrs["pulses"] = result.total_pulses


def _hit(span: Span, args: tuple, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _curve(span: Span, args: tuple, curve: Any) -> None:
    job = args[0]
    span.attrs["scheme"] = job.scheme
    span.attrs["block_erases"] = job.block_count * (
        curve.pec_points[-1] // job.step
    )


#: (target, span name, wrap options). Spans named alike share a layer.
TARGETS = [
    ("repro.campaign.spec:CampaignSpec.jobs", "harness.plan", {}),
    ("repro.campaign.supervisor:execute_job", "campaign.cell", {}),
    ("repro.harness.cells:build_ssd", "ssd.build", {}),
    ("repro.kernels.cell:precondition_kernel", "ftl.precondition", {}),
    ("repro.workloads.synthetic:SyntheticTraceGenerator.generate",
     "workloads.trace_gen", {}),
    ("repro.kernels.cell:run_trace_kernel", "kernels.replay",
     {"on_result": _requests}),
    # AeroEraseScheme.erase delegates to EraseScheme.erase via super():
    # one span per erase, not two.
    ("repro.erase.scheme:EraseScheme.erase", "erase",
     {"reentrant": False, "on_result": _pulses}),
    ("repro.core.aero:AeroEraseScheme.erase", "erase",
     {"reentrant": False, "on_result": _pulses}),
    ("repro.ftl.stats:FtlStats.record_erase", "telemetry.record_erase", {}),
    ("repro.kernels.cell:observe_replay", "telemetry.observe_replay", {}),
    ("repro.campaign.store:ShardedResultStore.__init__", "store.open", {}),
    ("repro.campaign.store:ShardedResultStore.put", "store.put", {}),
    ("repro.campaign.store:ShardedResultStore.get", "store.get",
     {"on_result": _hit}),
    ("repro.campaign.store:ShardedResultStore.__contains__",
     "store.contains", {}),
    ("repro.lifetime.spec:LifetimeJob.execute", "lifetime.curve",
     {"on_result": _curve}),
]

#: Every per-layer metric the traced run prints: (unit, better).
#: Layers a workload does not reach report 0 (store metrics on
#: ``lifetime``, lifetime metrics on the grids); ``sim.*`` are simulated
#: statistics, identical for one seed on every commit that leaves the
#: model alone.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "campaign.parallel_efficiency": ("ratio", "higher"),
    "campaign.thread_cells": ("count", "higher"),
    "campaign.process_cells": ("count", "higher"),
    "campaign.retried": ("count", "lower"),
    "campaign.quarantined": ("count", "lower"),
    "erase.calls": ("count", "lower"),
    "erase.self_s": ("s", "lower"),
    "erase.us_per_call": ("us", "lower"),
    "erase.pulses_per_erase": ("count", "lower"),
    "telemetry.record_erase_s": ("s", "lower"),
    "telemetry.observe_replay_s": ("s", "lower"),
    "kernels.replay_self_s": ("s", "lower"),
    "kernels.replay_requests_per_s": ("1/s", "higher"),
    "ssd.build_s": ("s", "lower"),
    "ftl.precondition_s": ("s", "lower"),
    "workloads.trace_gen_s": ("s", "lower"),
    "store.put_ms_p50": ("ms", "lower"),
    "store.put_ms_p99": ("ms", "lower"),
    "store.get_ms_p50": ("ms", "lower"),
    "store.get_ms_p99": ("ms", "lower"),
    "store.open_s": ("s", "lower"),
    "store.contains_cold_per_s": ("1/s", "higher"),
    "store.bytes_per_record": ("bytes", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    **{f"lifetime.curve_s.{s}": ("s", "lower") for s in LIFETIME_SCHEMES},
    "lifetime.block_erases_per_s": ("1/s", "higher"),
    "harness.plan_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "error_rate": ("ratio", "lower"),
    "sim.erases": ("count", "lower"),
    "sim.gc_page_moves": ("count", "lower"),
    "sim.waf": ("ratio", "lower"),
    "sim.read_p9999_us": ("us", "lower"),
}


def install(tracer: Tracer) -> None:
    """Patch every target; :meth:`Tracer.restore` undoes it."""
    for target, name, options in TARGETS:
        tracer.patch(target, name, **options)


def pass_layers(spans: List[Span], start: float, end: float) -> Dict[str, float]:
    """Per-layer totals of one traced pass over the window ``[start, end]``."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    erases = by_name["erase"]
    replays = by_name["kernels.replay"]
    curves = by_name["lifetime.curve"]
    contains = by_name["store.contains"]
    out = {
        "erase.calls": float(len(erases)),
        "erase.self_s": sum(selfs[s.id] for s in erases),
        "erase.us_per_call": (
            total("erase") / len(erases) * 1e6 if erases else 0.0
        ),
        "erase.pulses_per_erase": (
            sum(s.attrs["pulses"] for s in erases) / len(erases)
            if erases else 0.0
        ),
        "telemetry.record_erase_s": total("telemetry.record_erase"),
        "telemetry.observe_replay_s": total("telemetry.observe_replay"),
        "kernels.replay_self_s": sum(selfs[s.id] for s in replays),
        "kernels.replay_requests_per_s": (
            sum(s.attrs["requests"] for s in replays) / total("kernels.replay")
            if replays else 0.0
        ),
        "ssd.build_s": total("ssd.build"),
        "ftl.precondition_s": total("ftl.precondition"),
        "workloads.trace_gen_s": total("workloads.trace_gen"),
        "store.contains_cold_per_s": (
            len(contains) / total("store.contains") if contains else 0.0
        ),
        "lifetime.block_erases_per_s": (
            sum(s.attrs["block_erases"] for s in curves)
            / total("lifetime.curve")
            if curves else 0.0
        ),
        "trace.coverage": coverage(spans, start, end),
    }
    for scheme in LIFETIME_SCHEMES:
        out[f"lifetime.curve_s.{scheme}"] = sum(
            s.duration for s in curves if s.attrs["scheme"] == scheme
        )
    return out


def store_samples(spans: List[Span]) -> Dict[str, List[float]]:
    """Raw store latencies of one pass, pooled across passes by the caller."""
    gets = [s for s in spans if s.name == "store.get"]
    return {
        "put_ms": [s.duration * 1e3 for s in spans if s.name == "store.put"],
        "get_ms": [s.duration * 1e3 for s in gets],
        "get_hits": [1.0 if s.attrs["hit"] else 0.0 for s in gets],
        "open_s": [s.duration for s in spans if s.name == "store.open"],
    }


def combine(passes: List[Dict[str, float]],
            samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Median of each per-pass total; percentiles over pooled samples."""

    def pct(values: List[float], q: float) -> float:
        return float(np.percentile(values, q)) if values else 0.0

    out = {
        name: median(p[name] for p in passes) for name in passes[0]
    } if passes else {}
    out.update({
        "store.put_ms_p50": pct(samples.get("put_ms", []), 50),
        "store.put_ms_p99": pct(samples.get("put_ms", []), 99),
        "store.get_ms_p50": pct(samples.get("get_ms", []), 50),
        "store.get_ms_p99": pct(samples.get("get_ms", []), 99),
        "store.open_s": pct(samples.get("open_s", []), 50),
        "store.hit_ratio": (
            float(np.mean(samples["get_hits"]))
            if samples.get("get_hits") else 0.0
        ),
    })
    return out
