"""Fleet-shared result cache tests (the service layer, no HTTP).

The tentpole contract: one content-keyed store shared by the whole
fleet.  An accepted remote result post persists its serialized blob
into the daemon's :class:`~repro.runner.ResultCache` *before*
subscribers resolve; the daemon answers stored specs itself, at
admission and at lease grant, and a result post may name the published
entry by digest; publishes are code-salt-gated and digest-verified; and
the store is the *same* store a foreground ``repro run`` over the cache
dir uses, so bit-identity is checkable end to end without processes.
"""

import asyncio

import pytest

from repro.errors import (
    CacheMissError,
    CodeSaltMismatchError,
    FenceRejectedError,
)
from repro.kernels import WORKLOAD_REGISTRY, run_workload
from repro.runner import ResultCache, code_salt
from repro.serve import (
    JobService,
    JobSpec,
    JobState,
    result_blob,
    result_from_blob,
    result_payload,
)

from test_worker import FakeClock, _lease_one


def _fleet(tmp_path, clock=None, **kwargs):
    kwargs.setdefault("cache", tmp_path / "cache")
    kwargs.setdefault("local_exec", False)
    service = JobService(tmp_path / "data", **kwargs)
    if clock is not None:
        service._now = clock
    return service


def _computed(payload):
    """(spec, result, payload, blob) for one simulated job — what a
    live worker would hold right before posting."""
    spec = JobSpec.from_payload(payload)
    workload = WORKLOAD_REGISTRY[spec.workload](**dict(spec.params))
    result = run_workload(workload, spec.to_config(), verify=spec.verify)
    return spec, result, result_payload(spec, result), result_blob(result)


class TestResultPostWarmsCache:
    def test_accepted_post_persists_blob_into_runner_cache(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va", "policy": "scc"})
        grant = _lease_one(service, "w1")
        spec, result, payload, blob = _computed(
            {"workload": "va", "policy": "scc"})
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=blob)
        assert record.state == JobState.DONE
        assert service.counters.get("serve.cache.published") == 1
        # The foreground runner's view of the very same store: the
        # entry loads by Job and is bit-identical to the worker's run.
        cache = ResultCache(tmp_path / "cache")
        loaded = cache.load(spec.to_job())
        assert loaded is not None
        assert loaded.buffers_digest == result.buffers_digest
        # Full payload equality covers the derived ALU/SIMD stats
        # fingerprints too: the served entry is bit-identical.
        assert result_payload(spec, loaded) == payload

    def test_publish_event_is_journaled(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, result, payload, blob = _computed({"workload": "va"})
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=blob)
        events = [e for e in service.journal.load()
                  if e["event"] == "publish"]
        assert len(events) == 1
        assert events[0]["id"] == record.id
        assert events[0]["key"] == record.key
        assert events[0]["worker"] == "w1"
        assert events[0]["digest"] == result.buffers_digest
        assert events[0]["via"] == "result_post"

    def test_blobless_post_still_resolves(self, tmp_path):
        """The blob is an optimization: a worker that skipped it (too
        large, old build) still resolves the job — cold cache."""
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, _ = _computed({"workload": "va"})
        service.complete_remote(record.id, "w1", grant["fence"], payload)
        assert record.state == JobState.DONE
        assert service.counters.get("serve.cache.published") == 0
        with pytest.raises(CacheMissError):
            service.cache_fetch(record.key, salt=code_salt())

    def test_salt_skew_rejects_post_and_keeps_lease(self, tmp_path):
        """A mixed-version fleet must not poison the store: the typed
        412 rejects the whole post, the lease stays live, and the
        worker's follow-up post *without* the blob lands."""
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        skewed = dict(blob, salt="0" * 12)
        with pytest.raises(CodeSaltMismatchError):
            service.complete_remote(record.id, "w1", grant["fence"],
                                    payload, cache=skewed)
        assert record.state == JobState.RUNNING  # post rejected whole
        assert service.leases.get(record.id) is not None  # lease alive
        with pytest.raises(CacheMissError):
            service.cache_fetch(record.key, salt=code_salt())
        service.complete_remote(record.id, "w1", grant["fence"], payload)
        assert record.state == JobState.DONE

    def test_malformed_blob_is_a_value_error(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        for bad in ({"encoding": "gzip", "salt": blob["salt"],
                     "data": blob["data"]},
                    dict(blob, data="!!!not-base64!!!"),
                    dict(blob, salt=""),
                    "not a mapping"):
            with pytest.raises(ValueError):
                service.complete_remote(record.id, "w1", grant["fence"],
                                        payload, cache=bad)
        assert record.state == JobState.RUNNING

    def test_blob_payload_digest_disagreement_rejected(self, tmp_path):
        """The blob must describe the very result being posted."""
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, _ = _computed({"workload": "va"})
        _, _, _, other_blob = _computed({"workload": "dp"})
        with pytest.raises(ValueError):
            service.complete_remote(record.id, "w1", grant["fence"],
                                    payload, cache=other_blob)

    def test_existing_entry_is_not_rewritten(self, tmp_path):
        """Publish-before-post already stored the entry: the result
        post's ingest is a no-op, not a second write."""
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        body = service.cache_publish(record.key, blob, worker="w1",
                                     job_id=record.id)
        assert body["stored"] is True
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=blob)
        assert record.state == JobState.DONE
        assert service.counters.get("serve.cache.published") == 1  # once
        again = service.cache_publish(record.key, blob)
        assert again == {"key": record.key, "stored": False,
                         "reason": "exists"}

    def test_zombie_post_never_reaches_the_store(self, tmp_path):
        """Fence rejection happens before blob ingest: a fenced-out
        worker's post does not publish as a side effect."""
        clock = FakeClock()
        service = _fleet(tmp_path, clock)
        record = service.submit({"workload": "va"})
        stale = _lease_one(service, "w1")
        clock.advance(service.lease_ttl + 1.0)
        service.expire_leases()
        _lease_one(service, "w2")
        _, _, payload, blob = _computed({"workload": "va"})
        with pytest.raises(FenceRejectedError):
            service.complete_remote(record.id, "w1", stale["fence"],
                                    payload, cache=blob)
        with pytest.raises(CacheMissError):
            service.cache_fetch(record.key, salt=code_salt())


class TestCacheFetch:
    def test_miss_then_hit_round_trip(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        spec, result, _, blob = _computed({"workload": "va"})
        key = spec.to_job().key
        with pytest.raises(CacheMissError):
            service.cache_fetch(key, salt=code_salt())
        service.cache_publish(key, blob, worker="w1")
        body = service.cache_fetch(key, salt=code_salt())
        assert body["key"] == key
        assert body["salt"] == code_salt()
        served = result_from_blob(body)
        assert served.buffers_digest == result.buffers_digest
        assert served.alu_stats == result.alu_stats
        assert served.simd_stats == result.simd_stats
        counters = service.counters
        assert counters.get("serve.cache.fetch") == 2
        assert counters.get("serve.cache.fetch_hits") == 1
        assert counters.get("serve.cache.published") == 1

    def test_fetch_salt_gate(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        spec, _, _, blob = _computed({"workload": "va"})
        key = spec.to_job().key
        service.cache_publish(key, blob)
        with pytest.raises(CodeSaltMismatchError):
            service.cache_fetch(key, salt="different-simulator")
        # Saltless fetch (trusting caller) still serves.
        assert service.cache_fetch(key)["key"] == key

    def test_fetch_requires_key(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        with pytest.raises(ValueError):
            service.cache_fetch("")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """Bit rot between publish and fetch: the daemon quarantines
        the entry and reports a miss, never serves garbage."""
        service = _fleet(tmp_path, FakeClock())
        spec, _, _, blob = _computed({"workload": "va"})
        key = spec.to_job().key
        service.cache_publish(key, blob)
        path = service.runner.cache.path_for_key(key)
        path.write_bytes(b"\x00garbage\x00" * 16)
        with pytest.raises(CacheMissError):
            service.cache_fetch(key, salt=code_salt())
        assert not path.exists()  # quarantined, not left to re-trip
        assert service.runner.cache.corrupt == 1

    def test_cacheless_daemon_always_misses_and_skips_publish(
            self, tmp_path):
        service = _fleet(tmp_path, FakeClock(), cache=None)
        spec, _, _, blob = _computed({"workload": "va"})
        key = spec.to_job().key
        body = service.cache_publish(key, blob)
        assert body == {"key": key, "stored": False, "reason": "no cache"}
        with pytest.raises(CacheMissError):
            service.cache_fetch(key, salt=code_salt())


class TestRestartAndFleetRoundTrip:
    def test_worker_result_served_across_daemon_restart(self, tmp_path):
        """Worker A's posted result must be a cache hit for a restarted
        daemon: resubmission of the same spec resolves from the store
        at admission, bit-identical, with no execution, and the
        ``GET /cache/{key}`` path serves the same entry."""
        clock = FakeClock()
        service = _fleet(tmp_path, clock)
        record = service.submit({"workload": "va", "policy": "bcc"})
        grant = _lease_one(service, "w1")
        spec, result, payload, blob = _computed(
            {"workload": "va", "policy": "bcc"})
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=blob)
        # Same dirs = a daemon restart.
        reborn = _fleet(tmp_path, clock)
        again = reborn.submit({"workload": "va", "policy": "bcc"})
        assert again.key == record.key
        assert again.state == JobState.DONE and again.cache_hit
        assert again.result == payload
        body = reborn.cache_fetch(again.key, salt=code_salt())
        served = result_from_blob(body)
        assert served.buffers_digest == result.buffers_digest
        assert result_payload(spec, served) == payload
        assert reborn.counters.get("serve.cache.fetch_hits") == 1

    def test_fetch_serves_stored_bytes_verbatim(self, tmp_path):
        """No re-pickle on the way out: the served envelope carries the
        exact bytes the publisher stored (digest-stable end to end)."""
        service = _fleet(tmp_path, FakeClock())
        spec, _, _, blob = _computed({"workload": "va"})
        key = spec.to_job().key
        service.cache_publish(key, blob)
        body = service.cache_fetch(key, salt=code_salt())
        assert body["data"] == blob["data"]
        assert body["digest"] == blob["digest"]
        assert body["size"] == blob["size"]


class TestRemoteTraceExport:
    def test_blob_carried_telemetry_exports_a_trace(self, tmp_path):
        """Remote jobs used to lose their Chrome trace (the JSON result
        payload cannot carry telemetry); the blob restores it."""
        from repro.telemetry.chrome_trace import validate_chrome_trace
        import json

        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va", "telemetry": "trace"})
        grant = _lease_one(service, "w1")
        _, result, payload, blob = _computed(
            {"workload": "va", "telemetry": "trace"})
        assert result.telemetry is not None
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=blob)
        assert record.state == JobState.DONE
        assert record.trace_path is not None
        trace = json.loads((tmp_path / "data" / "traces"
                            / f"{record.id}.json").read_text())
        assert validate_chrome_trace(trace) > 0


def _journal_events(service, job_id):
    return [e["event"] for e in service.journal.load() if e["id"] == job_id]


class TestStoreAnswersAtAdmission:
    def test_stored_spec_resolves_at_submit_without_lease(self, tmp_path):
        """A spec the store holds and nothing is running resolves in
        ``submit``: a cache hit with one submit + one resolve record, no
        queue slot and no lease."""
        service = _fleet(tmp_path, FakeClock())
        spec, result, payload, blob = _computed(
            {"workload": "va", "policy": "bcc"})
        service.cache_publish(spec.to_job().key, blob)
        record = service.submit({"workload": "va", "policy": "bcc"})
        assert record.state == JobState.DONE
        assert record.cache_hit is True
        assert record.result == payload
        assert record.worker is None and record.assignments == 0
        assert len(service._queue) == 0
        assert record.key not in service._inflight
        assert _journal_events(service, record.id) == ["submit", "resolve"]
        counters = service.counters
        assert counters.get("serve.jobs.cache_hits") == 1
        assert counters.get("serve.jobs.executed") == 0
        assert counters.get("serve.leases.granted") == 0
        assert asyncio.run(service.lease("w1", wait=0.0)) == []

    def test_admission_hit_beats_a_full_queue(self, tmp_path):
        """The store check comes before the queue-full check: a stored
        answer costs no queue slot, so a full queue does not refuse it."""
        service = _fleet(tmp_path, FakeClock(), queue_limit=1)
        spec, _, _, blob = _computed({"workload": "va"})
        service.cache_publish(spec.to_job().key, blob)
        service.submit({"workload": "dp"})  # fills the queue
        record = service.submit({"workload": "va"})
        assert record.state == JobState.DONE and record.cache_hit

    def test_in_flight_check_comes_first(self, tmp_path):
        """A running spec gains subscribers even once its entry is
        stored: the running job resolves them, not the store."""
        service = _fleet(tmp_path, FakeClock())
        first = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        spec, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(first.key, blob)  # publish-before-post
        second = service.submit({"workload": "va"})
        assert second.dedup_of == first.id
        assert second.state == JobState.RUNNING
        service.complete_remote(first.id, "w1", grant["fence"], payload,
                                cache={"digest": blob["digest"]})
        assert second.state == JobState.DONE
        assert second.result == payload

    def test_restart_recovers_admission_hit_as_done(self, tmp_path):
        clock = FakeClock()
        service = _fleet(tmp_path, clock)
        spec, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(spec.to_job().key, blob)
        record = service.submit({"workload": "va"})
        assert record.state == JobState.DONE

        reborn = _fleet(tmp_path, clock)
        again = reborn.get(record.id)
        assert again.state == JobState.DONE
        assert again.cache_hit is True
        assert again.result == payload
        assert reborn.counters.get("serve.jobs.recovered") == 0
        assert len(reborn._queue) == 0

    def test_resubmissions_take_no_new_lease(self, tmp_path):
        """One spec, three submissions — during the run and after it
        resolved: exactly one lease fleet-wide."""
        service = _fleet(tmp_path, FakeClock())
        first = service.submit({"workload": "va", "policy": "scc"})
        grant = _lease_one(service, "w1")
        spec, _, payload, blob = _computed(
            {"workload": "va", "policy": "scc"})
        during = service.submit({"workload": "va", "policy": "scc"})
        assert service.counters.get("serve.leases.granted") == 1
        service.cache_publish(first.key, blob)
        service.complete_remote(first.id, "w1", grant["fence"], payload,
                                cache={"digest": blob["digest"]})
        after = service.submit({"workload": "va", "policy": "scc"})
        assert during.state == after.state == JobState.DONE
        assert during.dedup_of == first.id
        assert after.cache_hit is True
        assert service.counters.get("serve.leases.granted") == 1
        assert asyncio.run(service.lease("w1", wait=0.0)) == []


class TestStoreAnswersAtGrant:
    def test_late_publish_resolves_at_grant(self, tmp_path):
        """A fenced-out worker's publish lands after its job was
        requeued: the job resolves from the store at the next grant —
        no second lease, one assignment."""
        clock = FakeClock()
        service = _fleet(tmp_path, clock)
        record = service.submit({"workload": "va"})
        _lease_one(service, "w1")
        clock.advance(service.lease_ttl + 1.0)
        service.expire_leases()
        assert record.state == JobState.QUEUED
        _, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(record.key, blob, worker="w1",
                              job_id=record.id)
        assert asyncio.run(service.lease("w2", wait=0.0)) == []
        assert record.state == JobState.DONE
        assert record.cache_hit is True
        assert record.assignments == 1
        assert record.result == payload
        assert service.counters.get("serve.leases.granted") == 1
        assert service.counters.get("serve.jobs.cache_hits") == 1
        assert _journal_events(service, record.id)[-1] == "resolve"

    def test_publish_then_crash_resolves_at_expiry(self, tmp_path):
        """A worker published and died before posting: the expiry that
        takes its lease resolves the job from the store, with no
        further lease call (a daemon without polling workers would
        otherwise leave it queued for good)."""
        clock = FakeClock()
        service = _fleet(tmp_path, clock)
        record = service.submit({"workload": "va"})
        _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(record.key, blob, worker="w1",
                              job_id=record.id)
        clock.advance(service.lease_ttl + 1.0)
        assert service.expire_leases() == 1
        assert record.state == JobState.DONE
        assert record.cache_hit is True
        assert record.result == payload
        assert record.assignments == 1
        assert service.counters.get("serve.jobs.cache_hits") == 1
        assert service.counters.get("serve.leases.reassigned") == 0
        assert _journal_events(service, record.id)[-2:] == [
            "expire", "resolve"]

    def test_stored_answer_beats_the_assignment_bound(self, tmp_path):
        """At the ``max_assignments`` bound a lease-lost job is failed
        as a worker crash — unless its answer is stored: then it
        resolves as cached."""
        clock = FakeClock()
        service = _fleet(tmp_path, clock, max_assignments=1)
        record = service.submit({"workload": "va"})
        _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(record.key, blob, worker="w1",
                              job_id=record.id)
        clock.advance(service.lease_ttl + 1.0)
        service.expire_leases()
        assert record.state == JobState.DONE
        assert record.cache_hit is True
        assert record.error is None
        assert record.result == payload
        assert service.counters.get("serve.jobs.failed") == 0

    def test_entry_landing_while_queued_resolves_subscribers(
            self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        first = service.submit({"workload": "va"})
        second = service.submit({"workload": "va"})
        _, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(first.key, blob)  # e.g. another daemon's
        service.submit({"workload": "dp"})
        grants = asyncio.run(service.lease("w1", wait=0.0))
        assert [g["spec"]["workload"] for g in grants] == ["dp"]
        assert first.state == second.state == JobState.DONE
        assert second.result == payload


class TestReferencePost:
    def test_reference_post_resolves_from_the_stored_entry(self, tmp_path):
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(record.key, blob, worker="w1",
                              job_id=record.id)
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache={"digest": blob["digest"]})
        assert record.state == JobState.DONE
        assert record.cache_hit is False
        assert service.counters.get("serve.jobs.executed") == 1
        assert service.counters.get("serve.cache.published") == 1

    def test_reference_to_missing_entry_is_a_typed_miss(self, tmp_path):
        """404 with the lease intact; the blob repost then lands."""
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        with pytest.raises(CacheMissError) as excinfo:
            service.complete_remote(record.id, "w1", grant["fence"],
                                    payload,
                                    cache={"digest": blob["digest"]})
        assert excinfo.value.http_status == 404
        assert record.state == JobState.RUNNING
        assert service.leases.get(record.id) is not None
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=blob)
        assert record.state == JobState.DONE
        assert service.counters.get("serve.cache.published") == 1

    def test_stored_digest_mismatch_is_a_value_error(self, tmp_path):
        """The stored entry must be the result being posted: a payload
        whose digest differs from the entry's is a 400."""
        service = _fleet(tmp_path, FakeClock())
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        _, _, payload, blob = _computed({"workload": "va"})
        service.cache_publish(record.key, blob)
        forged = dict(payload, buffers_digest="0" * 64)
        for cache in ({"digest": "0" * 64}, {}):
            with pytest.raises(ValueError):
                service.complete_remote(record.id, "w1", grant["fence"],
                                        forged, cache=cache)
        assert record.state == JobState.RUNNING

    def test_cacheless_daemon_misses_every_reference(self, tmp_path):
        service = _fleet(tmp_path, FakeClock(), cache=None)
        record = service.submit({"workload": "va"})
        grant = _lease_one(service, "w1")
        with pytest.raises(CacheMissError):
            service.complete_remote(record.id, "w1", grant["fence"],
                                    {"buffers_digest": "d"},
                                    cache={"digest": "d"})


class TestTraceFromTheStore:
    """Remote ``telemetry="trace"`` jobs get their Chrome trace in the
    worker's real order: publish first, then post."""

    def _check_trace(self, tmp_path, record):
        from repro.telemetry.chrome_trace import validate_chrome_trace
        import json

        assert record.trace_path is not None
        trace = json.loads((tmp_path / "data" / "traces"
                            / f"{record.id}.json").read_text())
        assert validate_chrome_trace(trace) > 0

    @pytest.mark.parametrize("posted", ["blob", "reference"])
    def test_publish_then_post_exports_a_trace(self, tmp_path, posted):
        service = _fleet(tmp_path, FakeClock())
        spec_body = {"workload": "va", "telemetry": "trace"}
        record = service.submit(spec_body)
        grant = _lease_one(service, "w1")
        _, result, payload, blob = _computed(spec_body)
        assert result.telemetry is not None
        service.cache_publish(record.key, blob, worker="w1",
                              job_id=record.id)
        cache = blob if posted == "blob" else {"digest": blob["digest"]}
        service.complete_remote(record.id, "w1", grant["fence"], payload,
                                cache=cache)
        self._check_trace(tmp_path, record)

    def test_store_hits_export_a_trace(self, tmp_path):
        clock = FakeClock()
        service = _fleet(tmp_path, clock)
        spec_body = {"workload": "va", "telemetry": "trace"}
        queued = service.submit(spec_body)
        _lease_one(service, "w1")
        _, _, _, blob = _computed(spec_body)
        service.cache_publish(queued.key, blob)
        clock.advance(service.lease_ttl + 1.0)
        service.expire_leases()
        asyncio.run(service.lease("w2", wait=0.0))  # grant-time hit
        self._check_trace(tmp_path, queued)
        admitted = service.submit(spec_body)  # admission hit
        assert admitted.cache_hit is True
        self._check_trace(tmp_path, admitted)
