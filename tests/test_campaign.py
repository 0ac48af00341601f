"""Campaign subsystem: sharded store, campaign spec, orchestrator.

The contracts pinned here are the ones the ISSUE's acceptance criteria
name: membership == retrievability on the store, append-only
last-write-wins with crash-tolerant loading and compaction, campaign
specs planning ``GridRunner.plan``-identical jobs, and an interrupted
campaign resuming from the store alone into a grid bit-identical to an
uninterrupted serial run with no cell executed twice.
"""

import hashlib
import json
import threading

import pytest

from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    ShardedResultStore,
    cell_engine_kind,
    load_campaign_file,
    run_campaign,
)
from repro.errors import ConfigError
from repro.harness import (
    CACHE_VERSION,
    GridRunner,
    ResultStore,
    SerialExecutor,
    run_workload_cell,
)

SPEC = CampaignSpec(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm", "ali.A"),
    requests=120,
    seed=1234,
)


@pytest.fixture(scope="module")
def report():
    return run_workload_cell("aero", 500, "hm", requests=120, seed=7)


def fake_key(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()


def serial_grid(spec: CampaignSpec):
    runner = GridRunner(executor=SerialExecutor())
    return runner.run(
        schemes=spec.schemes,
        pec_points=spec.pec_points,
        workloads=spec.workloads,
        requests=spec.requests,
        spec=spec.ssd,
        erase_suspension=spec.erase_suspension,
        seed=spec.seed,
    )


# --- sharded store -----------------------------------------------------------


def test_store_round_trip_and_membership(tmp_path, report):
    store = ShardedResultStore(tmp_path)
    key = fake_key(1)
    assert key not in store
    assert store.get(key) is None
    store.put(key, report, meta={"scheme": "aero"})
    assert key in store
    assert store.get(key) == report
    assert len(store) == 1
    # a fresh handle reads the same state back from disk
    reopened = ShardedResultStore(tmp_path)
    assert key in reopened
    assert reopened.get(key) == report
    assert reopened.entries()[0].meta == {"scheme": "aero"}


def test_store_satisfies_result_store_protocol(tmp_path):
    assert isinstance(ShardedResultStore(tmp_path), ResultStore)


def test_store_shards_by_fingerprint_prefix(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=2)
    keys = [fake_key(n) for n in range(8)]
    for key in keys:
        store.put(key, report)
    for key in keys:
        shard_dir = tmp_path / key[:2]
        assert shard_dir.is_dir()
        blob = b"".join(
            path.read_bytes() for path in shard_dir.glob("seg-*.jsonl")
        )
        assert key.encode() in blob


def test_store_rolls_segments_past_max_bytes(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1, segment_max_bytes=1)
    keys = sorted((fake_key(n) for n in range(6)), key=lambda k: k[0])
    same_shard = [k for k in keys if k[0] == keys[0][0]]
    for key in keys:
        store.put(key, report)
    # every record overflows the 1-byte budget, so each lands in its
    # own segment within its shard
    for key in keys:
        segments = list((tmp_path / key[0]).glob("seg-*.jsonl"))
        assert len(segments) >= 1
    if len(same_shard) > 1:
        segments = list((tmp_path / same_shard[0][0]).glob("seg-*.jsonl"))
        assert len(segments) == len(same_shard)
    assert len(store) == 6
    assert ShardedResultStore(tmp_path).stats().segments >= 6


def test_store_last_write_wins(tmp_path, report):
    other = run_workload_cell("aero", 500, "hm", requests=120, seed=8)
    assert other != report
    store = ShardedResultStore(tmp_path)
    key = fake_key(2)
    store.put(key, report)
    store.put(key, other)
    assert store.get(key) == other
    assert len(store) == 1
    assert store.stats().superseded == 1
    # the reopened index resolves the duplicate the same way
    assert ShardedResultStore(tmp_path).get(key) == other


def test_store_tolerates_torn_final_line(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1)
    key = fake_key(3)
    store.put(key, report)
    segment = next((tmp_path / key[0]).glob("seg-*.jsonl"))
    with segment.open("ab") as handle:
        handle.write(b'{"version": 2, "key": "torn')  # crash mid-append
    reopened = ShardedResultStore(tmp_path)
    assert reopened.get(key) == report
    assert reopened.stats().corrupt_lines == 1
    # the next append must not concatenate onto the torn bytes
    key2 = key[0] + fake_key(4)[1:]
    reopened.put(key2, report)
    assert reopened.get(key2) == report
    assert ShardedResultStore(tmp_path).get(key2) == report


def test_store_stale_version_reads_as_miss(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1)
    key = fake_key(5)
    store.put(key, report)
    segment = next((tmp_path / key[0]).glob("seg-*.jsonl"))
    record = json.loads(segment.read_text())
    record["version"] = CACHE_VERSION - 1
    segment.write_text(json.dumps(record) + "\n")
    reopened = ShardedResultStore(tmp_path)
    assert key not in reopened
    assert reopened.get(key) is None
    assert reopened.stats().stale == 1


def test_store_compaction_squashes_and_prunes(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1, segment_max_bytes=1)
    keys = [fake_key(n) for n in range(4)]
    for key in keys:
        store.put(key, report)
        store.put(key, report)  # superseded duplicate per key
    before = store.stats()
    assert before.superseded == 4
    result = store.compact()
    assert result.records_dropped >= 4
    assert result.bytes_reclaimed > 0
    after = store.stats()
    assert after.superseded == 0
    assert after.keys == 4
    assert after.segments == after.shards  # one segment per shard now
    for key in keys:
        assert store.get(key) == report
    # and the compacted layout reads identically from a fresh handle
    reopened = ShardedResultStore(tmp_path)
    for key in keys:
        assert reopened.get(key) == report


def test_store_gc_matches_cache_semantics(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1)
    keys = [fake_key(n) for n in range(5)]
    for key in keys:
        store.put(key, report)
    # age the first two records far into the past
    for key in keys[:2]:
        segment = next((tmp_path / key[0]).glob("seg-*.jsonl"))
        lines = segment.read_text().splitlines()
        aged = []
        for line in lines:
            record = json.loads(line)
            if record["key"] == key:
                record["ts"] = 1.0
            aged.append(json.dumps(record))
        segment.write_text("\n".join(aged) + "\n")
    store = ShardedResultStore(tmp_path)
    result = store.gc(older_than_s=3600.0)
    assert result.removed_count == 2
    assert {entry.key for entry in result.removed} == set(keys[:2])
    assert result.kept == 3
    assert len(store) == 3
    for key in keys[:2]:
        assert key not in store
    for key in keys[2:]:
        assert store.get(key) == report
    # dry-run reports without deleting
    dry = store.gc(max_entries=1, dry_run=True)
    assert dry.removed_count == 2
    assert len(store) == 3


def test_store_gc_ranks_healthy_over_stale(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1)
    keys = [fake_key(n) for n in range(4)]
    for key in keys:
        store.put(key, report)
    # make the two *newest* records stale-versioned
    for key in keys[2:]:
        segment = next((tmp_path / key[0]).glob("seg-*.jsonl"))
        lines = segment.read_text().splitlines()
        rewritten = []
        for line in lines:
            record = json.loads(line)
            if record["key"] == key:
                record["version"] = CACHE_VERSION - 1
            rewritten.append(json.dumps(record))
        segment.write_text("\n".join(rewritten) + "\n")
    store = ShardedResultStore(tmp_path)
    result = store.gc(max_entries=2, remove_corrupt=False)
    # the stale survivors are evicted first; both healthy entries stay
    assert {entry.key for entry in result.removed} == set(keys[2:])
    for key in keys[:2]:
        assert store.get(key) == report


def test_store_rejects_mismatched_prefix_len(tmp_path):
    ShardedResultStore(tmp_path, prefix_len=2)
    with pytest.raises(ConfigError):
        ShardedResultStore(tmp_path, prefix_len=3)
    # omitting the argument honours the manifest
    assert ShardedResultStore(tmp_path).prefix_len == 2


def test_store_rejects_non_hex_keys(tmp_path, report):
    store = ShardedResultStore(tmp_path)
    with pytest.raises(ConfigError):
        store.put("not-a-fingerprint", report)


def test_store_concurrent_thread_puts(tmp_path, report):
    store = ShardedResultStore(tmp_path, prefix_len=1)
    keys = [fake_key(n) for n in range(24)]
    errors = []

    def worker(chunk):
        try:
            for key in chunk:
                store.put(key, report)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(keys[i::4],))
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(store) == 24
    reopened = ShardedResultStore(tmp_path)
    assert all(reopened.get(key) == report for key in keys)


def test_grid_runner_accepts_sharded_store(tmp_path):
    store = ShardedResultStore(tmp_path)
    cold = GridRunner(cache=store)
    grid_cold = cold.run(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    assert cold.stats.executed == 1
    warm = GridRunner(cache=ShardedResultStore(tmp_path))
    grid_warm = warm.run(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    assert warm.stats.executed == 0
    assert warm.stats.cached == 1
    assert grid_warm == grid_cold


def test_grid_runner_rejects_cache_and_cache_dir(tmp_path):
    with pytest.raises(ConfigError):
        GridRunner(
            cache=ShardedResultStore(tmp_path / "s"),
            cache_dir=tmp_path / "c",
        )


def _write_legacy_entry(root, job, result, version=CACHE_VERSION):
    """One entry exactly as the former per-file result cache wrote it:
    ``<fingerprint>.json`` with version, key, meta and report, plus a
    ``family`` field on non-cell results."""
    from repro.harness.results import result_family, result_to_json_dict

    data = {
        "version": version,
        "key": job.fingerprint,
        "meta": job.store_meta(),
        "report": result_to_json_dict(result),
    }
    if result_family(result) != "cell":
        data["family"] = result_family(result)
    path = root / f"{job.fingerprint}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_store_imports_legacy_cache_dir_once(tmp_path):
    from repro.harness.runner import execute_job
    from repro.lifetime import LifetimeSpec

    cell, stale = GridRunner().plan(
        schemes=("baseline", "aero"), pec_points=(500,),
        workloads=("hm",), requests=100, spec=None,
        erase_suspension=True, seed=1234,
    )
    [curve] = LifetimeSpec(
        schemes=("baseline",), profile="3D-TLC-48L",
        block_count=4, step=500, max_pec=2000,
    ).jobs()
    jobs = [cell, curve, stale]
    expected = [execute_job(job) for job in jobs]
    legacy = [
        _write_legacy_entry(tmp_path, cell, expected[0]),
        _write_legacy_entry(tmp_path, curve, expected[1]),
        _write_legacy_entry(
            tmp_path, stale, expected[2], version=CACHE_VERSION - 1
        ),
    ]

    runner = GridRunner(cache_dir=tmp_path)
    assert runner.execute_jobs(jobs) == expected
    # both healthy entries were served; only the stale one recomputed
    assert runner.stats.cached == 2
    assert runner.stats.executed == 1
    assert all(path.exists() for path in legacy)
    # the import ran once, at creation: reopening re-puts nothing
    assert ShardedResultStore(tmp_path).stats().superseded == 0
    assert dict(ShardedResultStore(tmp_path).stats().families) == {
        "cell": 2, "lifetime": 1,
    }


# --- campaign spec -----------------------------------------------------------


def test_campaign_jobs_match_grid_runner_plan():
    planned = GridRunner().plan(
        schemes=SPEC.schemes,
        pec_points=SPEC.pec_points,
        workloads=SPEC.workloads,
        requests=SPEC.requests,
        spec=None,
        erase_suspension=True,
        seed=SPEC.seed,
    )
    assert SPEC.jobs() == planned
    assert SPEC.fingerprints() == [job.fingerprint for job in planned]


def test_campaign_experiments_resolve_to_same_jobs():
    jobs = SPEC.jobs()
    resolved = [spec.resolve() for spec in SPEC.experiments()]
    assert resolved == jobs


def test_campaign_spec_json_round_trip(tmp_path):
    clone = CampaignSpec.from_json(SPEC.to_json())
    assert clone == SPEC
    assert clone.fingerprints() == SPEC.fingerprints()
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"campaign": SPEC.to_dict()}))
    assert load_campaign_file(path) == SPEC


def test_campaign_spec_validation_errors():
    with pytest.raises(ConfigError):
        CampaignSpec(schemes=())
    with pytest.raises(ConfigError):
        CampaignSpec(requests=0)
    with pytest.raises(ConfigError):
        CampaignSpec(engine="warp")
    with pytest.raises(ConfigError):
        CampaignSpec(pec_points=(-1,))
    with pytest.raises(ConfigError):
        CampaignSpec.from_dict({"schemes": ["aero"], "mystery": 1})
    with pytest.raises(ConfigError):
        CampaignSpec(schemes=("no_such_scheme",)).validate()


def test_campaign_spec_size():
    assert SPEC.size == 2 * 1 * 2 == len(SPEC.jobs())


# --- orchestrator ------------------------------------------------------------


def test_campaign_equals_serial_grid(tmp_path):
    reference = serial_grid(SPEC)
    result = run_campaign(
        SPEC, tmp_path, process_workers=2, thread_workers=2
    )
    assert result.stats.executed == SPEC.size
    assert result.stats.resumed == 0
    assert result.grid == reference


def test_campaign_routes_engines_to_pools(tmp_path):
    kernel_jobs = SPEC.jobs()
    assert all(cell_engine_kind(job) == "kernel" for job in kernel_jobs)
    object_spec = CampaignSpec(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234, engine="object",
    )
    assert all(
        cell_engine_kind(job) == "object" for job in object_spec.jobs()
    )
    result = run_campaign(object_spec, tmp_path, process_workers=2)
    assert result.stats.process_cells == object_spec.size
    assert result.stats.thread_cells == 0


def test_campaign_object_engine_matches_serial(tmp_path):
    object_spec = CampaignSpec(
        schemes=("baseline", "aero"), pec_points=(500,),
        workloads=("hm",), requests=120, seed=1234, engine="object",
    )
    reference = serial_grid(object_spec)
    result = run_campaign(object_spec, tmp_path, process_workers=2)
    # engine-free fingerprints: the object-engine campaign shares cells
    # with (and is bit-identical to) the auto-engine serial grid
    assert result.grid == reference


def test_interrupted_campaign_resumes_bit_identical(tmp_path):
    """The acceptance-criteria test: kill mid-run, resume from the
    store alone, end bit-identical to an uninterrupted serial run with
    no cell executed twice."""
    reference = serial_grid(SPEC)
    kill_after = 2

    class Kill(Exception):
        pass

    def bomb(index, job, report, _seen=[0]):
        _seen[0] += 1
        if _seen[0] >= kill_after:
            raise Kill()

    with pytest.raises(Kill):
        CampaignOrchestrator(
            SPEC, tmp_path, thread_workers=2, on_cell=bomb
        ).run()
    # the killed run persisted exactly the cells completed before death
    interrupted = ShardedResultStore(tmp_path)
    assert len(interrupted) == kill_after

    # restart from the store alone: a brand-new orchestrator instance
    resumed = CampaignOrchestrator(SPEC, tmp_path, thread_workers=2).run()
    assert resumed.stats.resumed == kill_after
    assert resumed.stats.executed == SPEC.size - kill_after
    assert resumed.grid == reference
    # no cell executed twice: every key has exactly one record (an
    # append-only store would show superseded records otherwise)
    stats = ShardedResultStore(tmp_path).stats()
    assert stats.keys == SPEC.size
    assert stats.superseded == 0

    # a third run resumes everything and stays identical
    replay = run_campaign(SPEC, tmp_path)
    assert replay.stats.executed == 0
    assert replay.stats.resumed == SPEC.size
    assert replay.grid == reference


def test_campaign_progress_reports(tmp_path):
    snapshots = []
    result = run_campaign(
        SPEC,
        tmp_path,
        thread_workers=2,
        progress=snapshots.append,
        progress_interval_s=0.0,
    )
    assert result.stats.executed == SPEC.size
    assert snapshots[0].done == 0
    final = snapshots[-1]
    assert final.done == final.total == SPEC.size
    assert final.fraction == 1.0
    assert final.cells_per_s is not None and final.cells_per_s > 0
    assert final.remaining == 0
    mid = snapshots[1]
    assert 0 < mid.done <= SPEC.size
    assert "cells" in final.format()


def test_campaign_status_without_executing(tmp_path):
    orchestrator = CampaignOrchestrator(SPEC, tmp_path)
    status = orchestrator.status()
    assert status.total == SPEC.size
    assert status.done == 0
    run_campaign(SPEC, tmp_path)
    assert CampaignOrchestrator(SPEC, tmp_path).status().done == SPEC.size


def test_worker_exception_propagates(tmp_path):
    bad = CampaignSpec(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    # poison the store so the persist step fails
    class ExplodingStore(ShardedResultStore):
        def put(self, key, report, meta=None):
            raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        CampaignOrchestrator(bad, ExplodingStore(tmp_path)).run()


# --- multi-process writers ---------------------------------------------------
#
# The helpers live at module scope so that (fork or not) the child
# processes can resolve them; each child writes through its own store
# handle, exercising the shared-flock append path for real.


def _mp_writer(root, start, count, requests):
    report = run_workload_cell("aero", 500, "hm", requests=requests, seed=7)
    store = ShardedResultStore(root, segment_max_bytes=8192)
    for n in range(start, start + count):
        store.put(fake_key(n), report)


def _mp_campaign(root):
    run_campaign(SPEC, root, thread_workers=2)


def test_two_process_store_writers_lose_nothing(tmp_path):
    """Two writer processes racing a compacting parent: every record
    survives. This is the multi-writer acceptance criterion."""
    import multiprocessing as mp

    per_writer = 40
    writers = [
        mp.Process(
            target=_mp_writer, args=(str(tmp_path), n * per_writer,
                                     per_writer, 40)
        )
        for n in range(2)
    ]
    for writer in writers:
        writer.start()
    # compact continuously while the writers append
    compactor = ShardedResultStore(tmp_path, segment_max_bytes=8192)
    while any(writer.is_alive() for writer in writers):
        compactor.compact()
    for writer in writers:
        writer.join(120)
        assert writer.exitcode == 0
    compactor.compact()
    final = ShardedResultStore(tmp_path)
    expected = sorted(fake_key(n) for n in range(2 * per_writer))
    assert sorted(final.keys()) == expected
    for key in expected:
        assert key in final


def test_two_orchestrator_processes_share_one_store(tmp_path):
    """Two concurrent orchestrator processes on one store root, then a
    third in-process run: nothing left to execute and the grid is
    bit-identical to an uninterrupted serial run."""
    import multiprocessing as mp

    reference = serial_grid(SPEC)
    racers = [
        mp.Process(target=_mp_campaign, args=(str(tmp_path),))
        for _ in range(2)
    ]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join(600)
        assert racer.exitcode == 0
    replay = run_campaign(SPEC, tmp_path)
    assert replay.stats.executed == 0
    assert replay.stats.resumed == SPEC.size
    assert replay.grid == reference
    stats = ShardedResultStore(tmp_path).stats()
    assert stats.keys == SPEC.size


def test_two_handles_interleave_put_and_compact(tmp_path, report):
    """The in-process flavour of the race: one handle keeps appending
    while another compacts between its puts; the appender survives the
    rewrite and neither handle drops a record."""
    writer = ShardedResultStore(tmp_path, segment_max_bytes=1)
    compactor = ShardedResultStore(tmp_path, segment_max_bytes=1)
    writer.put(fake_key(0), report)
    writer.put(fake_key(0), report)  # superseded: gives compact work
    writer.put(fake_key(1), report)
    compactor.compact()
    # the compaction bumped the generation; the writer's next put lands
    # in the rewritten shard layout without losing its cached state
    writer.put(fake_key(2), report)
    expected = sorted(fake_key(n) for n in range(3))
    assert sorted(writer.keys()) == expected
    for key in expected:
        assert writer.get(key) == report
    # a fresh handle (and the compactor, after its own rescan) agree
    assert sorted(ShardedResultStore(tmp_path).keys()) == expected
    compactor.compact()
    assert sorted(compactor.keys()) == expected
