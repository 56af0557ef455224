"""Tests for the shared parallel + cached experiment runner."""

import pickle

import pytest

from repro.core.policy import CompactionPolicy
from repro.gpu.config import GpuConfig
from repro.gpu.results import KernelRunResult
from repro.runner import (
    Job,
    ResultCache,
    Runner,
    config_digest,
    default_runner,
    stable_digest,
)

#: Small fast workloads for grid tests.
GRID_WORKLOADS = ("va", "gnoise")
GRID_POLICIES = (CompactionPolicy.IVB, CompactionPolicy.SCC)


def _grid_jobs():
    return [
        Job(name, GpuConfig(policy=policy))
        for name in GRID_WORKLOADS
        for policy in GRID_POLICIES
    ]


class TestJobIdentity:
    def test_same_request_same_key(self):
        assert Job("va").key == Job("va", GpuConfig()).key

    def test_params_change_key(self):
        assert Job("va", params={"n": 128}).key != Job("va").key
        assert (Job("va", params={"n": 128}).key
                == Job("va", params={"n": 128}).key)

    def test_config_change_key(self):
        assert (Job("va", GpuConfig(policy=CompactionPolicy.SCC)).key
                != Job("va").key)
        assert (Job("va", GpuConfig().with_memory(perfect_l3=True)).key
                != Job("va").key)

    def test_config_digest_covers_nested_memory_params(self):
        base = GpuConfig()
        assert (config_digest(base.with_memory(dc_lines_per_cycle=2.0))
                != config_digest(base))

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            Job("no_such_workload")

    def test_inline_factories_never_alias(self):
        a = Job("x", factory=lambda: None)
        b = Job("x", factory=lambda: None)
        assert a.key != b.key
        assert not a.cacheable

    def test_stable_digest_rejects_unkeyable(self):
        with pytest.raises(TypeError):
            stable_digest(object())


class TestParallelMatchesSerial:
    def test_bit_identical_results(self, tmp_path):
        jobs = _grid_jobs()
        serial = Runner(workers=1, cache=False).run(jobs)
        parallel = Runner(workers=2, cache=False).run(_grid_jobs())
        for job_s, job_p in zip(jobs, _grid_jobs()):
            a, b = serial[job_s], parallel[job_p]
            assert a.summary() == b.summary()
            assert a.eu_cycles_by_policy() == b.eu_cycles_by_policy()
            assert a.kernel == b.kernel and a.policy == b.policy

    def test_duplicate_jobs_simulated_once(self):
        runner = Runner(workers=1, cache=False)
        results = runner.run([Job("va"), Job("va"), Job("va")])
        assert runner.last_stats.requested == 3
        assert runner.last_stats.unique == 1
        assert runner.last_stats.executed == 1
        assert len(results) == 1  # identical jobs collapse to one entry


class TestResultCache:
    def test_hit_on_repeat_run(self, tmp_path):
        cold = Runner(workers=1, cache=ResultCache(tmp_path))
        first = cold.run_one("va")
        assert cold.last_stats.executed == 1

        warm = Runner(workers=1, cache=ResultCache(tmp_path))
        second = warm.run_one("va")
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cache_hits == 1
        assert first.summary() == second.summary()

    def test_miss_after_config_change(self, tmp_path):
        Runner(workers=1, cache=ResultCache(tmp_path)).run_one("va")
        changed = Runner(workers=1, cache=ResultCache(tmp_path))
        changed.run([Job("va", GpuConfig().with_memory(
            dc_lines_per_cycle=2.0))])
        assert changed.last_stats.cache_hits == 0
        assert changed.last_stats.executed == 1

    def test_miss_after_code_salt_change(self, tmp_path):
        Runner(workers=1, cache=ResultCache(tmp_path, salt="one")).run_one("va")
        stale = Runner(workers=1, cache=ResultCache(tmp_path, salt="two"))
        stale.run_one("va")
        assert stale.last_stats.executed == 1

    def test_corrupted_entry_falls_back_to_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(workers=1, cache=cache)
        reference = runner.run_one("va")
        entries = list(tmp_path.glob("*/*/*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"definitely not a pickle")

        recovered_cache = ResultCache(tmp_path)
        recovered = Runner(workers=1, cache=recovered_cache)
        result = recovered.run_one("va")
        assert recovered_cache.corrupt == 1
        assert recovered.last_stats.executed == 1
        assert result.summary() == reference.summary()

    def test_wrong_type_entry_treated_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(workers=1, cache=cache)
        runner.run_one("va")
        entry = next(tmp_path.glob("*/*/*.pkl"))
        entry.write_bytes(pickle.dumps({"not": "a result"}))

        again = ResultCache(tmp_path)
        assert again.load(Job("va")) is None
        assert again.corrupt == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(workers=1, cache=cache).run_one("va")
        assert cache.clear() == 1
        assert not list(tmp_path.glob("*/*/*.pkl"))

    def test_parallel_run_populates_cache(self, tmp_path):
        pool = Runner(workers=2, cache=ResultCache(tmp_path))
        pool.run(_grid_jobs())
        assert pool.last_stats.executed == len(_grid_jobs())

        warm = Runner(workers=2, cache=ResultCache(tmp_path))
        warm.run(_grid_jobs())
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cache_hits == len(_grid_jobs())


class TestShardedLayout:
    def test_entries_land_in_two_level_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(workers=1, cache=cache).run_one("va")
        entry = next(tmp_path.glob("*/*/*.pkl"))
        digest = entry.name.rsplit("-", 1)[1].removesuffix(".pkl")
        # ab/cd/<name>-abcd....pkl: shard dirs are the digest prefix.
        assert entry.parent.name == digest[2:4]
        assert entry.parent.parent.name == digest[:2]
        assert entry == cache.path_for(Job("va"))

    def test_clear_sweeps_both_layouts(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(workers=1, cache=cache).run_one("va")
        legacy = tmp_path / "dp-0123456789abcdef0123456789abcdef.pkl"
        legacy.write_bytes(b"stale flat entry")
        assert cache.clear() == 2
        assert not list(tmp_path.glob("*/*/*.pkl")) and not legacy.exists()


class TestQueueWaitAccounting:
    def test_serial_batch_waits_accumulate(self, tmp_path):
        events = []
        runner = Runner(workers=1, cache=False, progress=events.append)
        jobs = [Job("fault_sleep", params={"seconds": 0.2, "n": 8}),
                Job("fault_sleep", params={"seconds": 0.0, "n": 8})]
        runner.run(jobs)
        waited = {e.job.key: e for e in events}
        first, second = (waited[j.key] for j in jobs)
        # The second job queued behind the first's 0.2s sleep; its own
        # execution clock excludes that wait entirely.
        assert second.queue_wait >= first.elapsed * 0.9
        assert first.queue_wait < first.elapsed
        assert runner.last_stats.queue_seconds >= second.queue_wait
        assert (runner.last_stats.host_seconds
                >= first.elapsed + second.elapsed - 1e-6)

    def test_cache_hits_report_no_wait(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(workers=1, cache=cache).run_one("va")
        events = []
        warm = Runner(workers=1, cache=cache, progress=events.append)
        warm.run_one("va")
        assert events[-1].status == "cached"
        assert events[-1].queue_wait == 0.0
        assert warm.last_stats.queue_seconds == 0.0

    def test_pool_waits_recorded_per_job(self, tmp_path):
        events = []
        runner = Runner(workers=2, cache=ResultCache(tmp_path),
                        progress=events.append)
        runner.run(_grid_jobs())
        executed = [e for e in events if e.status == "executed"]
        assert len(executed) == len(_grid_jobs())
        assert all(e.queue_wait >= 0.0 for e in executed)
        assert runner.last_stats.queue_seconds == pytest.approx(
            sum(e.queue_wait for e in executed), abs=1e-6)


class TestProgressAndStats:
    def test_progress_events_cover_every_unique_job(self, tmp_path):
        events = []
        runner = Runner(workers=1, cache=ResultCache(tmp_path),
                        progress=events.append)
        runner.run([Job("va"), Job("va"),
                    Job("va", GpuConfig(policy=CompactionPolicy.SCC))])
        assert len(events) == 2
        assert {e.status for e in events} == {"executed"}
        assert sorted(e.index for e in events) == [1, 2]
        assert all(e.total == 2 for e in events)

        rerun = Runner(workers=1, cache=ResultCache(tmp_path),
                       progress=events.append)
        rerun.run([Job("va")])
        assert events[-1].status == "cached"

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Runner(workers=0)


class TestInlineFactories:
    def test_inline_factory_runs_and_is_uncached(self, tmp_path):
        from repro.kernels.linalg import vector_add

        cache = ResultCache(tmp_path)
        runner = Runner(workers=2, cache=cache)
        job = Job("va_inline", factory=lambda: vector_add(n=64))
        result = runner.run([job])[job]
        assert isinstance(result, KernelRunResult)
        assert not list(tmp_path.glob("*/*/*.pkl"))


class TestDefaultRunner:
    def test_default_runner_is_shared(self):
        assert default_runner() is default_runner()


class TestAllPoliciesThroughRunner:
    def test_registry_name_batches_by_policy(self, tmp_path):
        from repro.kernels.workload import run_workload_all_policies

        runner = Runner(workers=1, cache=ResultCache(tmp_path))
        results = run_workload_all_policies("va", runner=runner)
        assert set(results) == {"ivb", "bcc", "scc"}
        assert runner.last_stats.executed == 3

        warm = Runner(workers=1, cache=ResultCache(tmp_path))
        again = run_workload_all_policies("va", runner=warm)
        assert warm.last_stats.cache_hits == 3
        assert {k: v.total_cycles for k, v in again.items()} == \
            {k: v.total_cycles for k, v in results.items()}
