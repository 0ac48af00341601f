"""Determinism and cache regressions for the evaluation harness.

The parallel runner and the result store are only safe because every
cell is a pure function of its inputs; these tests pin that property:
same seed -> identical report, process grid == serial grid
cell-for-cell, cached report == recomputed report, and a warm cache
replays a campaign without executing anything.
"""

import hashlib
import json

import pytest

from repro.campaign import ShardedResultStore
from repro.harness import (
    CACHE_VERSION,
    GridRunner,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    cell_fingerprint,
    run_grid,
    run_workload_cell,
)
from repro.config import SsdSpec
from repro.ssd.metrics import LatencyRecorder, PerfReport

GRID_KWARGS = dict(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm", "ali.A"),
    requests=120,
    seed=1234,
)


def test_same_seed_same_report():
    a = run_workload_cell("aero", 500, "hm", requests=150, seed=11)
    b = run_workload_cell("aero", 500, "hm", requests=150, seed=11)
    assert a == b
    assert a.reads.values == b.reads.values
    assert a.writes.values == b.writes.values


def test_different_seed_different_report():
    a = run_workload_cell("aero", 500, "hm", requests=150, seed=11)
    b = run_workload_cell("aero", 500, "hm", requests=150, seed=12)
    assert a != b


def test_process_grid_equals_serial_grid():
    serial = GridRunner(executor=SerialExecutor())
    parallel = GridRunner(executor=ProcessExecutor(2))
    grid_s = serial.run(**GRID_KWARGS)
    grid_p = parallel.run(**GRID_KWARGS)
    assert len(grid_s.cells) == len(grid_p.cells) == 4
    for cell_s, cell_p in zip(grid_s.cells, grid_p.cells):
        assert cell_s.key == cell_p.key
        assert cell_s.report == cell_p.report
    assert grid_s == grid_p


def test_thread_grid_equals_serial_grid():
    serial = GridRunner(executor=SerialExecutor())
    threaded = GridRunner(executor=ThreadExecutor(2))
    grid_s = serial.run(**GRID_KWARGS)
    grid_t = threaded.run(**GRID_KWARGS)
    assert len(grid_s.cells) == len(grid_t.cells) == 4
    for cell_s, cell_t in zip(grid_s.cells, grid_t.cells):
        assert cell_s.key == cell_t.key
        assert cell_s.report == cell_t.report
    assert grid_s == grid_t


def test_thread_executor_api():
    import pytest as _pytest

    from repro.errors import ConfigError

    assert repr(ThreadExecutor(3)) == "ThreadExecutor(workers=3)"
    with _pytest.raises(ConfigError):
        ThreadExecutor(0)


@pytest.mark.parametrize("executor", [ProcessExecutor(2), ThreadExecutor(2)])
def test_failing_job_raises_poison_and_keeps_finished_cells(
    tmp_path, executor
):
    from repro.errors import PoisonCellError
    from repro.harness.runner import CellJob

    spec = SsdSpec.small_test(seed=3)
    good = [
        CellJob(scheme=scheme, pec=0, workload="hm", spec=spec,
                requests=120, erase_suspension=True, seed=1)
        for scheme in ("baseline", "aero")
    ]
    bad = CellJob(scheme="no_such_scheme", pec=0, workload="hm",
                  spec=spec, requests=120, erase_suspension=True, seed=1)
    runner = GridRunner(executor=executor, cache_dir=tmp_path)
    with pytest.raises(PoisonCellError, match="ConfigError: unknown scheme"
                       ) as raised:
        runner.execute_jobs(good + [bad])
    assert raised.value.index == 2
    assert raised.value.fingerprint == bad.fingerprint
    # every cell that finished before the failure is in the store...
    finished = len(ShardedResultStore(tmp_path))
    assert finished >= 1
    # ...and a rerun serves it from there
    rerun = GridRunner(executor=executor, cache_dir=tmp_path)
    reports = rerun.execute_jobs(good)
    assert rerun.stats.cached == finished
    assert rerun.stats.executed == len(good) - finished
    assert reports == GridRunner().execute_jobs(good)


def test_thread_lifetime_comparison_equals_serial():
    from repro.lifetime import compare_schemes
    from repro.nand.chip_types import TLC_3D_48L

    kwargs = dict(
        scheme_keys=("baseline", "aero"), block_count=12, step=200, seed=6
    )
    serial = compare_schemes(TLC_3D_48L, **kwargs)
    threaded = compare_schemes(
        TLC_3D_48L, executor=ThreadExecutor(2), **kwargs
    )
    for key in kwargs["scheme_keys"]:
        assert serial.curves[key].lifetime_pec == threaded.curves[key].lifetime_pec
        assert serial.curves[key].avg_mrber == threaded.curves[key].avg_mrber


def test_warm_cache_executes_zero_cells(tmp_path):
    cold = GridRunner(cache_dir=tmp_path)
    grid_cold = cold.run(**GRID_KWARGS)
    assert cold.stats.executed == 4
    assert cold.stats.cached == 0

    warm = GridRunner(cache_dir=tmp_path)
    grid_warm = warm.run(**GRID_KWARGS)
    assert warm.stats.executed == 0
    assert warm.stats.cached == 4
    assert grid_warm == grid_cold


def test_cache_resumes_partial_campaign(tmp_path):
    partial = GridRunner(cache_dir=tmp_path)
    partial.run(
        **{**GRID_KWARGS, "workloads": ("hm",)}
    )
    assert partial.stats.executed == 2

    resumed = GridRunner(cache_dir=tmp_path)
    resumed.run(**GRID_KWARGS)
    # The two "hm" cells replay from disk; only "ali.A" cells execute.
    assert resumed.stats.cached == 2
    assert resumed.stats.executed == 2


def test_cache_ignores_corrupt_entries(tmp_path):
    runner = GridRunner(cache_dir=tmp_path)
    runner.run(**GRID_KWARGS)
    for path in tmp_path.glob("*/seg-*.jsonl"):
        path.write_text("{ truncated", encoding="utf-8")
    rerun = GridRunner(cache_dir=tmp_path)
    rerun.run(**GRID_KWARGS)
    assert rerun.stats.executed == 4


def test_cached_grid_equals_uncached_grid(tmp_path):
    plain = run_grid(**GRID_KWARGS)
    cached = run_grid(**GRID_KWARGS, cache_dir=tmp_path)
    reloaded = run_grid(**GRID_KWARGS, cache_dir=tmp_path)
    assert plain == cached == reloaded


def test_perf_report_json_round_trip():
    report = run_workload_cell("aero", 500, "hm", requests=120, seed=5)
    clone = PerfReport.from_json_dict(report.to_json_dict())
    assert clone == report
    assert clone.reads.percentile(99.0) == report.reads.percentile(99.0)
    assert clone.iops == report.iops
    assert clone.extra == report.extra


def test_json_round_trip_survives_json_text():
    import json

    report = run_workload_cell("baseline", 2500, "usr", requests=100, seed=8)
    text = json.dumps(report.to_json_dict())
    clone = PerfReport.from_json_dict(json.loads(text))
    assert clone == report


def test_latency_recorder_equality():
    a = LatencyRecorder.from_values("reads", [1.0, 2.5])
    b = LatencyRecorder.from_values("reads", [1.0, 2.5])
    c = LatencyRecorder.from_values("reads", [1.0, 2.5, 3.0])
    assert a == b
    assert a != c
    assert a != "reads"


def _key(name):
    """A fingerprint-shaped (64 hex digit) store key."""
    return hashlib.sha256(name.encode()).hexdigest()


def _append_record(root, key, ts, report=None, version=CACHE_VERSION):
    """Append one raw record line with a chosen timestamp to the key's
    shard; ``report=None`` writes a corrupt (report-less) record."""
    record = {"version": version, "key": key, "ts": ts, "meta": {}}
    if report is not None:
        record["report"] = report.to_json_dict()
    shard = root / key[:2]
    shard.mkdir(exist_ok=True)
    with (shard / "seg-000000.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def test_result_cache_round_trip(tmp_path):
    cache = ShardedResultStore(tmp_path)
    report = run_workload_cell("aero", 500, "hm", requests=100, seed=3)
    cache.put(_key("abc123"), report, meta={"scheme": "aero"})
    assert _key("abc123") in cache
    assert len(cache) == 1
    assert cache.get(_key("abc123")) == report
    assert cache.get(_key("missing")) is None


def test_custom_workload_profile_runs_and_gets_own_cache_key(tmp_path):
    from repro.workloads.profiles import WorkloadProfile, profile_by_abbr

    custom = WorkloadProfile("synthetic", "custom_0", "cst", 0.5, 16.0, 50.0)
    tweaked_hm = WorkloadProfile("msrc", "hm_0", "hm", 0.75, 8.0, 151.5,
                                 acceleration=10.0)
    runner = GridRunner(cache_dir=tmp_path)
    kwargs = dict(schemes=("baseline",), pec_points=(500,), requests=100,
                  seed=3)
    grid = runner.run(workloads=(custom,), **kwargs)
    assert grid.report("baseline", 500, "cst").workload == "cst"

    # A tweaked profile reusing a registry abbr must not be silently
    # replaced by the stock workload, nor share its cache entry.
    grid_tweaked = runner.run(workloads=(tweaked_hm,), **kwargs)
    assert runner.stats.executed == 1
    grid_stock = runner.run(workloads=("hm",), **kwargs)
    assert runner.stats.executed == 1  # distinct fingerprint: no reuse
    assert grid_tweaked != grid_stock

    # A profile equal to the registry entry shares the stock cache.
    runner.run(workloads=(profile_by_abbr("hm"),), **kwargs)
    assert runner.stats.executed == 0
    assert runner.stats.cached == 1


def test_fingerprint_sensitivity():
    spec = SsdSpec.small_test(seed=1)
    base = dict(
        spec=spec, scheme="aero", pec=500, workload="hm",
        requests=100, seed=1,
    )
    reference = cell_fingerprint(**base)
    assert cell_fingerprint(**base) == reference
    for change in (
        {"scheme": "baseline"},
        {"pec": 2500},
        {"workload": "usr"},
        {"requests": 101},
        {"seed": 2},
        {"spec": SsdSpec.small_test(seed=2)},
    ):
        assert cell_fingerprint(**{**base, **change}) != reference
    assert cell_fingerprint(**base, erase_suspension=False) != reference


# --- cache correctness regressions ------------------------------------------
# Membership must match retrievability, concurrent puts must not
# collide, and gc's keep-newest-N budget must never evict a healthy
# entry while keeping an unusable one.


@pytest.fixture(scope="module")
def small_report():
    return run_workload_cell("aero", 500, "hm", requests=100, seed=3)


def _segment(root, key):
    return next((root / key[:2]).glob("seg-*.jsonl"))


def test_contains_is_false_for_truncated_entry(tmp_path, small_report):
    key = _key("feed01")
    ShardedResultStore(tmp_path).put(key, small_report)
    segment = _segment(tmp_path, key)
    segment.write_bytes(segment.read_bytes()[:40])
    cache = ShardedResultStore(tmp_path)
    # get() treats the torn record as a miss, so membership must too
    assert cache.get(key) is None
    assert key not in cache


def test_contains_is_false_for_stale_version_entry(tmp_path, small_report):
    key = _key("feed02")
    ShardedResultStore(tmp_path).put(key, small_report)
    segment = _segment(tmp_path, key)
    data = json.loads(segment.read_text())
    data["version"] = CACHE_VERSION - 1
    segment.write_text(json.dumps(data) + "\n", encoding="utf-8")
    cache = ShardedResultStore(tmp_path)
    assert cache.get(key) is None
    assert key not in cache
    # a healthy sibling still reads as present
    cache.put(_key("feed03"), small_report)
    assert _key("feed03") in cache


def test_concurrent_same_key_puts_do_not_collide(tmp_path, small_report):
    import threading

    cache = ShardedResultStore(tmp_path)
    key = _key("c0ffee")
    errors = []

    def hammer():
        try:
            for _ in range(20):
                cache.put(key, small_report)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert cache.get(key) == small_report
    assert ShardedResultStore(tmp_path).get(key) == small_report
    # appends need no tmp files: nothing orphaned
    assert list(tmp_path.glob("**/*.tmp.*")) == []


def test_gc_budget_prefers_healthy_over_corrupt(tmp_path, small_report):
    import time as _time

    ShardedResultStore(tmp_path)
    now = _time.time()
    healthy = [_key(name) for name in ("aaa", "bbb", "ccc")]
    for index, key in enumerate(healthy):
        _append_record(tmp_path, key, now - 100 + index, small_report)
    # two *newer* corrupt entries would win the old keep-newest-N pass
    corrupt = [_key(name) for name in ("ddd", "eee")]
    for index, key in enumerate(corrupt):
        _append_record(tmp_path, key, now + index)

    cache = ShardedResultStore(tmp_path)
    result = cache.gc(max_entries=3, remove_corrupt=False)
    # the budget evicts the unusable entries first, keeping all healthy
    assert {entry.key for entry in result.removed} == set(corrupt)
    assert result.kept == 3
    for key in healthy:
        assert key in cache


def test_gc_budget_still_trims_oldest_healthy(tmp_path, small_report):
    import time as _time

    ShardedResultStore(tmp_path)
    now = _time.time()
    healthy = [_key(name) for name in ("aaa", "bbb", "ccc")]
    for index, key in enumerate(healthy):
        _append_record(tmp_path, key, now - 100 + index, small_report)
    _append_record(tmp_path, _key("ddd"), now)

    cache = ShardedResultStore(tmp_path)
    result = cache.gc(max_entries=2, remove_corrupt=False)
    # corrupt first, then the oldest healthy entry
    assert {entry.key for entry in result.removed} == {
        _key("ddd"), healthy[0]
    }
    assert healthy[1] in cache and healthy[2] in cache
