"""The benchmark's own checks: span arithmetic, metric names, seeding."""

import json
import re
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from tracing import Span, Tracer, coverage, self_times, union_length

BENCH = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(span_id, parent, start, end, name="s"):
    s = Span(span_id, parent, name, thread=0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),    # overlaps span 2: counted once
        span(4, 1, 8.0, 12.0),   # runs past its parent: clipped at 10
        span(5, 2, 2.0, 3.0),    # grandchild: only span 2 loses it
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)
    assert union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)
    assert coverage(spans, 0.0, 20.0) == pytest.approx(0.5)


def test_tracer_links_parents_and_restores_attributes():
    module = types.ModuleType("perfbench_fake")

    class Base:
        def work(self):
            return 1

    class Child(Base):
        def work(self):
            return super().work() + 1

    class Plain(Base):
        pass

    base_work, child_work = vars(Base)["work"], vars(Child)["work"]

    def outer():
        return module.inner() + Child().work()

    def inner():
        return 1

    module.outer, module.inner = outer, inner
    module.Base, module.Child, module.Plain = Base, Child, Plain
    sys.modules[module.__name__] = module
    try:
        with Tracer() as tracer:
            tracer.patch("perfbench_fake:outer", "outer")
            tracer.patch("perfbench_fake:inner", "inner")
            tracer.patch("perfbench_fake:Base.work", "work", reentrant=False)
            tracer.patch("perfbench_fake:Child.work", "work", reentrant=False)
            tracer.patch("perfbench_fake:Plain.work", "plain")
            assert "work" in vars(Plain)
            assert module.outer() == 3
        by_name = {s.name: s for s in tracer.spans}
        assert sorted(by_name) == ["inner", "outer", "work"]
        assert len(tracer.spans) == 3   # Child.work -> Base.work is one span
        assert by_name["inner"].parent == by_name["outer"].id
        assert by_name["work"].parent == by_name["outer"].id
        assert by_name["outer"].parent is None
        assert module.outer is outer and module.inner is inner
        assert vars(Base)["work"] is base_work
        assert vars(Child)["work"] is child_work
        assert "work" not in vars(Plain)   # inherited again, not shadowed
        assert Child().work() == 2 and len(tracer.spans) == 3
    finally:
        del sys.modules[module.__name__]


def test_layer_targets_resolve_and_restore():
    tracer = Tracer()
    originals = []
    for target, _, _ in layers.TARGETS:
        module, _, path = target.partition(":")
        owner = __import__(module, fromlist=["_"])
        for part in path.split("."):
            owner = getattr(owner, part)
        originals.append(owner)
    layers.install(tracer)
    tracer.restore()
    for (target, _, _), original in zip(layers.TARGETS, originals):
        module, _, path = target.partition(":")
        owner = __import__(module, fromlist=["_"])
        for part in path.split("."):
            owner = getattr(owner, part)
        assert owner is original, target


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert per_layer == layers.PER_LAYER
    names = [w["name"] for w in bench["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    for name in [*e2e, *per_layer, *names]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def tiny_grid(seed, tmp_path):
    return workloads.GridWorkload(
        seed, tmp_path, workloads=("ali.A",), requests=120,
        schemes=("baseline", "aero"), pec_points=(2500,),
    )


def test_same_seed_gives_same_simulated_digest(tmp_path):
    first = tiny_grid(3, tmp_path / "a").run_pass(1)
    second = tiny_grid(3, tmp_path / "b").run_pass(2)
    assert first.failed == 0 and second.failed == 0
    assert first.digest == second.digest


def test_different_seeds_generate_different_inputs(tmp_path):
    for name, factory in workloads.WORKLOADS.items():
        one = factory(3, tmp_path).plan()
        other = factory(4, tmp_path).plan()
        assert one == factory(3, tmp_path).plan(), name
        assert one != other, name
    assert tiny_grid(3, tmp_path).run_pass(1).digest != (
        tiny_grid(4, tmp_path).run_pass(1).digest
    )
