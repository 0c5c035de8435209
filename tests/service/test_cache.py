"""Result cache: content addressing, hits, misses, persistence, the
one compile per source, and the operational maintenance surface
(`repro cache stats/prune`)."""
import hashlib
import json
import os
import sys
import threading
import time
from collections import OrderedDict

import pytest

import repro.frontend
import repro.service.cache as cache_module
from repro.cli import main
from repro.core import SESA
from repro.frontend.codegen import CodeGen
from repro.kernels.streams import STREAM_CASES
from repro.passes.taint import TaintAnalysis
from repro.repair import InsertionPoint, IRRewriter
from repro.service import (
    JobResult, JobSpec, JobStatus, ResultCache, Scheduler, builtin_jobs,
    cache_key, canonical_form, get_result, plan_shard_specs,
    run_swarm_batch, stream_jobs, swarm_cache_key, trace_hit_rate,
)
from repro.service.daemon import JobStore, WorkerDaemon
from repro.streams import check_stream
from repro.sym import LaunchConfig

CLEAN = "__global__ void k(float *a) { a[threadIdx.x] = 1.0f; }"
CLEAN_RESTYLED = """
// same program, different spelling
__global__ void k(float *a) {
  a[threadIdx.x] = 1.0f;
}
"""
RACY = """
__shared__ int v[64];
__global__ void race() {
  v[threadIdx.x] = v[(threadIdx.x + 1) % blockDim.x];
}
"""
#: prepended to a source: moves every access down three lines
SHIFT = "// one\n// two\n// three\n"


def _spec(source=CLEAN, **kw):
    kw.setdefault("job_id", "j")
    return JobSpec(source=source, **kw)


class TestCacheKey:
    def test_identical_jobs_share_a_key(self):
        assert cache_key(_spec()) == cache_key(_spec(job_id="other"))

    def test_edit_that_moves_no_instruction_shares_a_key(self):
        # the key hashes canonical IR plus locations, not source text
        base = cache_key(_spec(RACY))
        assert cache_key(_spec(RACY.replace("\n", "\r\n"))) == base
        assert cache_key(_spec(RACY + "// trailing comment\n")) == base

    def test_line_shifting_edit_changes_the_key(self):
        # a verdict names source lines, so moved accesses must miss
        assert cache_key(_spec(RACY)) != cache_key(_spec(SHIFT + RACY))
        assert cache_key(_spec(CLEAN)) != cache_key(_spec(CLEAN_RESTYLED))

    def test_changed_source_changes_the_key(self):
        assert cache_key(_spec(CLEAN)) != cache_key(_spec(RACY))

    def test_changed_config_changes_the_key(self):
        assert cache_key(_spec(config=LaunchConfig(block_dim=64))) != \
            cache_key(_spec(config=LaunchConfig(block_dim=128)))
        assert cache_key(_spec(engine="sesa")) != \
            cache_key(_spec(engine="gkleep"))
        assert cache_key(_spec(config=LaunchConfig(check_oob=True))) != \
            cache_key(_spec(config=LaunchConfig(check_oob=False)))

    def test_uncompilable_source_still_gets_a_stable_key(self):
        bad = "__global__ void k( this does not parse"
        assert cache_key(_spec(bad)) == cache_key(_spec(bad))
        assert cache_key(_spec(bad)) != cache_key(_spec(CLEAN))


def _count_compiles(monkeypatch):
    calls = []
    real = repro.frontend.compile_source

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(repro.frontend, "compile_source", counting)
    return calls


class TestFormMemo:
    def test_repeated_key_does_not_compile(self, monkeypatch):
        calls = _count_compiles(monkeypatch)
        source = RACY + "// memo: repeated key\n"
        first = cache_key(_spec(source))
        assert len(calls) == 1
        assert cache_key(_spec(source, job_id="again")) == first
        assert cache_key(_spec(source, config=LaunchConfig(block_dim=32))) != first
        assert len(calls) == 1

    def test_memo_stays_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(cache_module, "FORM_MEMO_SIZE", 4)
        calls = _count_compiles(monkeypatch)
        sources = [CLEAN + f"// memo bound {i}\n" for i in range(7)]
        for source in sources:
            cache_key(_spec(source))
        assert len(cache_module._form_memo) == 4
        cache_key(_spec(sources[-1]))      # recent: still memoised
        assert len(calls) == 7
        cache_key(_spec(sources[0]))       # least recent: evicted
        assert len(calls) == 8
        assert len(cache_module._form_memo) == 4

    def test_concurrent_threads_get_identical_keys(self, monkeypatch):
        calls = _count_compiles(monkeypatch)
        sources = [RACY + f"// memo threads {i}\n" for i in range(8)]
        workers = 4
        barrier = threading.Barrier(workers)
        keys = [None] * workers

        def compute(slot):
            barrier.wait(timeout=30)
            keys[slot] = [cache_key(_spec(s)) for s in sources]

        threads = [threading.Thread(target=compute, args=(slot,))
                   for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(k == keys[0] for k in keys)
        assert len(set(keys[0])) == 1   # trailing comments move nothing
        assert len(calls) == len(sources)   # each source compiled once


def _count_method(monkeypatch, owner, name):
    """Count calls of *owner.name*, patched on the class so every
    import binding of it counts."""
    calls = []
    real = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(cache_module, "_form_memo", OrderedDict())
    return cache_module._form_memo


def _stream_signature(report):
    verdict = report.to_dict()
    return json.dumps({key: verdict[key] for key in
                       ("races", "oobs", "assertion_failures",
                        "timed_out")}, sort_keys=True)


def _is_fresh_compile(source):
    """The memoised record of *source* has the digest of a fresh
    compile's canonical form."""
    form = hashlib.sha256(canonical_form(source).encode()).hexdigest()
    return cache_module.shared_module(source).digest == form


class TestCompiledRecord:
    """Each source is compiled once per process into one read-only
    record; cache keys, swarm plans, kernel jobs and stream checks all
    read it."""

    def test_stream_programs_compile_once_per_source(self, monkeypatch,
                                                     empty_memo):
        compiles = _count_method(monkeypatch, CodeGen, "compile")
        taints = _count_method(monkeypatch, TaintAnalysis, "run")
        sources = {case.program.source for case in STREAM_CASES}
        for _ in range(2):
            for case in STREAM_CASES:
                check_stream(case.program)
        assert len(sources) == 6
        assert len(compiles) == 6
        assert len(taints) == 9      # one per kernel of the six sources

    def test_threads_share_one_record(self, monkeypatch, empty_memo):
        compiles = _count_method(monkeypatch, CodeGen, "compile")
        taints = _count_method(monkeypatch, TaintAnalysis, "run")
        cases = [c for c in STREAM_CASES if c.name.startswith("pipeline")]
        workers = 4
        barrier = threading.Barrier(workers)
        verdicts = [None] * workers

        def check(slot):
            barrier.wait(timeout=30)
            verdicts[slot] = [_stream_signature(check_stream(c.program))
                              for c in cases]

        threads = [threading.Thread(target=check, args=(slot,))
                   for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert verdicts[0] is not None
        assert all(v == verdicts[0] for v in verdicts)
        assert len(compiles) == 1      # both programs share one source
        assert len(taints) == 2        # produce and consume, once each

    def test_swarm_plan_after_cache_key_compiles_nothing(self, monkeypatch,
                                                         empty_memo):
        compiles = _count_method(monkeypatch, CodeGen, "compile")
        spec = _spec(RACY, job_id="plan")
        cache_key(spec)
        assert len(compiles) == 1
        shard_specs, _selectors, _info = plan_shard_specs(spec, 2)
        assert shard_specs
        assert len(compiles) == 1

    def test_records_match_a_fresh_compile_after_use(self, empty_memo):
        sources = {case.program.source for case in STREAM_CASES}
        for case in STREAM_CASES:
            check_stream(case.program)
        swarm = _spec(RACY, job_id="swarm")
        swarm_cache_key(swarm, 2)
        plan_shard_specs(swarm, 2)
        jobs = builtin_jobs()[:4]
        batch = Scheduler(max_workers=2, isolate=False).run(jobs)
        assert all(job.status == JobStatus.DONE for job in batch.jobs)
        sources |= {RACY} | {job.source for job in jobs}
        assert len(empty_memo) == len(sources)
        assert all(_is_fresh_compile(source) for source in sources)

    def test_rewriting_a_fresh_tool_leaves_the_record_alone(self,
                                                            empty_memo):
        case = next(c for c in STREAM_CASES
                    if c.name == "pingpong_missing_sync")
        source = case.program.source
        key = cache_key(_spec(source))
        verdict = _stream_signature(check_stream(case.program))
        kernel = SESA.from_source(source).kernel
        entry = kernel.entry
        IRRewriter(kernel).insert_sync(InsertionPoint(
            block=entry, anchor=entry.terminator, source_line=1))
        assert cache_key(_spec(source)) == key
        assert _stream_signature(check_stream(case.program)) == verdict
        assert _is_fresh_compile(source)

    def test_uncompilable_source_memoises_its_failure(self, monkeypatch,
                                                      empty_memo):
        calls = _count_compiles(monkeypatch)
        bad = "__global__ void k( this does not parse"
        errors = []
        for _ in range(2):
            with pytest.raises(repro.frontend.ParseError) as info:
                cache_module.shared_module(bad)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("line 1:")
        assert cache_key(_spec(bad)) == cache_key(_spec(bad))
        assert len(calls) == 1


class TestCacheStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key(_spec())
        assert cache.get(key) is None
        payload = {"status": "done", "verdict": {"races": []}}
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key(_spec())
        cache.put(key, {"ok": True})
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    def test_lookup_tells_a_damaged_entry_from_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key(_spec())
        assert cache.lookup(key) == (None, None)
        cache.put(key, {"ok": True})
        assert cache.lookup(key) == ({"ok": True}, None)
        assert cache.lookup(key, lambda p: "wrong shape") == \
            (None, "wrong shape")
        with open(cache._path(key), "w") as fh:
            fh.write("[1, 2]")
        assert cache.lookup(key) == (None, "not a JSON object")
        with open(cache._path(key), "w") as fh:
            fh.write("{torn")
        payload, reason = cache.lookup(key)
        assert payload is None and reason.startswith("unreadable")
        assert cache.hits == 1 and cache.misses == 4

    def test_failed_write_returns_false_and_removes_its_temp(
            self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key(_spec())

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        assert cache.put(key, {"ok": True}) is False
        monkeypatch.undo()
        assert os.listdir(os.path.dirname(cache._path(key))) == []
        assert cache.get(key) is None


def _block_every_fanout(cache_dir):
    """Make every fan-out slot of *cache_dir* a regular file, so every
    write to the store fails with an ``OSError`` and every read misses."""
    os.makedirs(cache_dir, exist_ok=True)
    for i in range(256):
        open(os.path.join(cache_dir, f"{i:02x}"), "w").close()


def _signature(verdict):
    """Races and OOBs without their witnesses, and ``timed_out``."""
    def strip(items):
        return sorted(json.dumps({k: v for k, v in item.items()
                                  if not k.startswith("witness")},
                                 sort_keys=True) for item in items)
    return (strip(verdict["races"]), strip(verdict["oobs"]),
            verdict.get("resolvable"), verdict["timed_out"])


class TestUnwritableCache:
    """A store that cannot write costs only the replay: the job still
    ends ``done`` with the verdict it has without a cache."""

    def test_failed_verdict_write_keeps_the_verdict(self, tmp_path):
        spec = _spec(RACY, config=LaunchConfig(check_oob=False))
        reference = Scheduler().run([spec]).jobs[0]
        cache_dir = str(tmp_path / "cache")
        _block_every_fanout(cache_dir)
        job = Scheduler(cache=ResultCache(cache_dir)).run([spec]).jobs[0]
        assert job.status == JobStatus.DONE, job.error
        assert _signature(job.verdict) == _signature(reference.verdict)

    @pytest.mark.parametrize("unusable", ["blocked-fanout", "file"])
    def test_failed_stream_launch_write_keeps_the_verdict(
            self, tmp_path, unusable):
        spec = next(s for s in stream_jobs()
                    if s.meta["program"] == "pipeline_missing_sync")
        reference = Scheduler().run([spec]).jobs[0]
        cache_dir = str(tmp_path / "cache")
        if unusable == "file":
            open(cache_dir, "w").close()
        else:
            _block_every_fanout(cache_dir)
        spec.config.solver_cache_dir = cache_dir
        job = Scheduler().run([spec]).jobs[0]
        assert job.status == JobStatus.DONE, job.error
        assert job.verdict["stream"]["launches"] and \
            not any(launch["cached"]
                    for launch in job.verdict["stream"]["launches"])
        assert _signature(job.verdict) == _signature(reference.verdict)


class TestSchedulerIntegration:
    def test_second_run_hits_with_identical_verdict(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [_spec(RACY, job_id="racy",
                       config=LaunchConfig(check_oob=False)),
                 _spec(CLEAN, job_id="clean")]
        first = Scheduler(max_workers=2, cache=cache).run(specs)
        assert [r.status for r in first.jobs] == ["done", "done"]
        assert first.cache_hits == 0 and first.cache_misses == 2

        second = Scheduler(max_workers=2, cache=cache).run(specs)
        assert [r.status for r in second.jobs] == \
            [JobStatus.CACHED, JobStatus.CACHED]
        assert second.cache_hits == 2 and second.cache_misses == 0
        for a, b in zip(first.jobs, second.jobs):
            # byte-identical verdicts
            assert json.dumps(a.verdict, sort_keys=True) == \
                json.dumps(b.verdict, sort_keys=True)
            assert b.cached and b.attempts == 0

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        Scheduler(cache=cache).run(
            [_spec(config=LaunchConfig(block_dim=32))])
        batch = Scheduler(cache=cache).run(
            [_spec(config=LaunchConfig(block_dim=16))])
        assert batch.jobs[0].status == JobStatus.DONE  # not CACHED
        assert batch.cache_misses == 1

    def test_shifted_source_misses_and_reports_shifted_lines(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = Scheduler(cache=cache).run(
            [_spec(RACY, config=LaunchConfig(check_oob=False))])
        second = Scheduler(cache=cache).run(
            [_spec(SHIFT + RACY, config=LaunchConfig(check_oob=False))])
        assert second.jobs[0].status == JobStatus.DONE
        assert second.cache_hits == 0 and second.cache_misses == 1

        def lines(job):
            return [race["lines"] for race in job.verdict["races"]]

        assert lines(first.jobs[0])
        assert lines(second.jobs[0]) == \
            [[line + 3 for line in pair] for pair in lines(first.jobs[0])]

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        bad = _spec("__global__ void k( nope", job_id="bad")
        first = Scheduler(cache=cache).run([bad])
        assert first.jobs[0].status == JobStatus.ERROR
        second = Scheduler(cache=cache).run([bad])
        assert second.jobs[0].status == JobStatus.ERROR
        assert second.cache_hits == 0

    def test_timed_out_verdicts_are_not_cached(self, tmp_path):
        # a budget cut leaves a partial verdict (here: no races on a
        # racy kernel); serving it from the cache would hide the race
        cache = ResultCache(str(tmp_path / "cache"))
        spec = _spec(RACY, job_id="cut", config=LaunchConfig(
            check_oob=False, time_budget_seconds=1e-6))
        key = cache_key(spec)

        for _ in range(2):
            job = Scheduler(cache=cache, isolate=False).run([spec]).jobs[0]
            assert job.status == JobStatus.DONE
            assert job.verdict["timed_out"]
        for run in range(2):
            # each daemon lifetime has its own queue, one shared cache
            store = JobStore(str(tmp_path / f"queue{run}.db"))
            store.submit(spec, key)
            worker = WorkerDaemon(store, cache=cache, isolate=False)
            assert worker.process_one()
            row = store.get(store.list_jobs()[0].job_id)
            assert row.result["status"] == JobStatus.DONE
            assert not row.result["cached"]
            store.close()
        assert cache.hits == 0
        assert not os.path.exists(cache._path(key))


def _truncate(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])


def _overwrite(value):
    def damage(path):
        with open(path, "w") as fh:
            json.dump(value, fh)
    return damage


def _check_stats_list(path):
    with open(path) as fh:
        entry = json.load(fh)
    entry["verdict"]["check_stats"] = []
    _overwrite(entry)(path)


def _leave_tmp_file(path):
    # a writer killed between write and rename: no entry, a stray
    # temporary beside where it would be
    os.replace(path, path + ".tmp.123.456")


class TestDamagedEntries:
    """A damaged entry is a counted miss and the job is re-checked
    cold, never an error or a wrong verdict."""

    @pytest.mark.parametrize("damage", [
        _truncate, _overwrite([]), _overwrite("x"),
        _overwrite({"verdict": 3}),
        _overwrite({"verdict": {"races": [7]}}), _check_stats_list,
        _leave_tmp_file,
    ], ids=["truncated", "list", "string", "verdict-not-object",
            "race-not-object", "check-stats-list", "leftover-tmp"])
    def test_damaged_entry_is_rechecked_cold(self, tmp_path, damage):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = _spec(RACY, config=LaunchConfig(check_oob=False))
        fresh = Scheduler(cache=cache).run([spec]).jobs[0]
        damage(cache._path(fresh.cache_key))

        again = Scheduler(cache=cache).run([spec])
        assert again.cache_misses == 1 and again.cache_hits == 0
        assert again.jobs[0].status == JobStatus.DONE
        assert again.jobs[0].issue_tags() == fresh.issue_tags()

        # the re-checked verdict replaced the damaged entry
        replay = Scheduler(cache=cache).run([spec])
        assert replay.jobs[0].status == JobStatus.CACHED
        assert json.dumps(replay.jobs[0].verdict, sort_keys=True) == \
            json.dumps(again.jobs[0].verdict, sort_keys=True)


STREAM_SOURCE = """\
__global__ void produce(int *a) { a[threadIdx.x] = threadIdx.x; }
__global__ void consume(int *a, int *b) {
  b[threadIdx.x] = a[threadIdx.x] + 1;
}
"""
STREAM_PROGRAM = {
    "name": "pipe", "buffers": {"a": 64, "b": 64},
    "steps": [{"launch": "produce", "args": {"a": "a"}},
              {"launch": "consume", "stream": 1,
               "args": {"a": "a", "b": "b"}}],
}


def _key_count(node, name):
    """How often *name* occurs as a key anywhere in a JSON tree."""
    if isinstance(node, dict):
        return (name in node) + sum(_key_count(v, name)
                                    for v in node.values())
    if isinstance(node, list):
        return sum(_key_count(v, name) for v in node)
    return 0


class TestStoredEntries:
    """A stored entry holds the check stats once, in its verdict, and
    rebuilds into the record the cold run returned."""

    def _assert_round_trip(self, cache, key, cold):
        with open(cache._path(key)) as fh:
            entry = json.load(fh)
        assert _key_count(entry, "check_stats") == 1
        assert "check_stats" not in entry
        assert entry["verdict"]["check_stats"] == cold.check_stats
        back = JobResult.from_dict(entry)
        assert back.verdict == cold.verdict
        assert back.check_stats == cold.check_stats
        assert back.issue_tags() == cold.issue_tags()
        assert back.has_issues == cold.has_issues
        # an entry written while portfolio mode existed still loads,
        # and the retired key is dropped
        cache.put(key, dict(entry, portfolio={
            "winner": "default", "variants": ["default"],
            "elapsed_seconds": 0.1}))
        served = get_result(cache, key, "again")
        assert served is not None and served.verdict == cold.verdict
        assert "portfolio" not in served.to_dict()

    def test_kernel_job(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = _spec(RACY, config=LaunchConfig(check_oob=False))
        cold = Scheduler(cache=cache).run([spec]).jobs[0]
        assert cold.status == JobStatus.DONE and cold.has_issues
        self._assert_round_trip(cache, cold.cache_key, cold)

    def test_stream_job(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = JobSpec(job_id="pipe", source=STREAM_SOURCE,
                       kind="stream",
                       stream_program=dict(STREAM_PROGRAM))
        cold = Scheduler(cache=cache).run([spec]).jobs[0]
        assert cold.status == JobStatus.DONE and cold.has_issues
        assert "stats" not in cold.verdict["stream"]
        self._assert_round_trip(cache, cold.cache_key, cold)

    def test_swarm_merged_parent(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = _spec(RACY, config=LaunchConfig(check_oob=False))
        cold = run_swarm_batch([spec], 2, max_workers=2,
                               cache=cache).jobs[0]
        assert cold.status == JobStatus.DONE and cold.has_issues
        key = swarm_cache_key(spec, 2)
        assert cold.cache_key == key
        self._assert_round_trip(cache, key, cold)


def _fill(cache, n, age_seconds=0.0, start=0):
    """Write *n* entries, optionally backdating their mtimes."""
    keys = []
    for i in range(start, start + n):
        key = f"{i:02d}" + "ab" * 31    # distinct two-char fanouts
        cache.put(key, {"i": i, "pad": "x" * 64})
        if age_seconds:
            then = time.time() - age_seconds
            os.utime(cache._path(key), (then, then))
        keys.append(key)
    return keys


class TestMaintenance:
    def test_disk_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.disk_stats()["entries"] == 0
        _fill(cache, 3)
        stats = cache.disk_stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["oldest_age_seconds"] >= stats["newest_age_seconds"]

    def test_prune_by_age_keeps_fresh_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        old = _fill(cache, 2, age_seconds=3600.0)
        fresh = _fill(cache, 1, start=2)
        outcome = cache.prune(max_age_seconds=60.0)
        assert outcome["removed"] == 2 and outcome["kept"] == 1
        assert all(cache.get(k) is None for k in old)
        assert cache.get(fresh[0]) is not None

    def test_prune_by_bytes_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        oldest = _fill(cache, 1, age_seconds=3600.0)[0]
        newest = _fill(cache, 1, start=1)[0]
        entry_size = os.path.getsize(cache._path(newest))
        outcome = cache.prune(max_bytes=entry_size)
        assert outcome["removed"] == 1
        assert cache.get(oldest) is None
        assert cache.get(newest) is not None

    def test_trace_hit_rate(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        events = [{"event": "cache_hit"}] * 3 + \
                 [{"event": "cache_miss"}] + \
                 [{"event": "job_finished"}]
        trace.write_text("\n".join(json.dumps(e) for e in events)
                         + "\n{torn line")
        rate = trace_hit_rate(str(trace))
        assert rate["hits"] == 3 and rate["misses"] == 1
        assert rate["hit_rate"] == 0.75
        assert trace_hit_rate(str(tmp_path / "missing.jsonl")) is None


class TestCacheCli:
    def test_stats_and_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        _fill(cache, 2, age_seconds=3600.0)
        (tmp_path / "cache" / "trace.jsonl").write_text(
            json.dumps({"event": "cache_hit"}) + "\n")

        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["telemetry"]["hits"] == 1

        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-age", "60", "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["removed"] == 2 and outcome["kept"] == 0

    def test_leftover_temp_file_is_counted_and_pruned(
            self, tmp_path, capsys):
        # a writer killed between write and rename leaves its temp file
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        key = _fill(cache, 1)[0]
        tmp = cache._path("cd" + key[2:]) + ".tmp.123.456"
        os.makedirs(os.path.dirname(tmp))
        with open(tmp, "w") as fh:
            fh.write('{"torn": ')
        then = time.time() - 3600.0
        os.utime(tmp, (then, then))

        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 2
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-age", "60", "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["removed"] == 1 and outcome["kept"] == 1
        assert not os.path.exists(tmp)
        assert cache.get(key) is not None

    def test_prune_without_bounds_exits_2(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        ResultCache(cache_dir)
        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
        assert "needs --max-age" in capsys.readouterr().err

    def test_missing_cache_dir_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["cache", "stats", "--cache-dir", missing]) == 2
        assert "no cache" in capsys.readouterr().err
