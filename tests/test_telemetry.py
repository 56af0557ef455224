"""Tests for the telemetry subsystem: counters, events, collection,
Chrome-trace export, and the zero-overhead-when-disabled contract."""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.core.policy import CompactionPolicy
from repro.gpu.config import GpuConfig
from repro.kernels import WORKLOAD_REGISTRY
from repro.kernels.workload import run_workload
from repro.telemetry import (
    CounterRegistry,
    Event,
    TelemetryCollector,
    TelemetryResult,
    chrome_trace_dict,
    export_chrome_trace,
    make_collector,
    validate_chrome_trace,
)


def _run(name, policy=CompactionPolicy.SCC, level="off", **cfg):
    config = GpuConfig(policy=policy, **cfg)
    if level != "off":
        config = config.with_telemetry(level)
    return run_workload(WORKLOAD_REGISTRY[name](), config)


class TestCounterRegistry:
    def test_incr_and_get(self):
        reg = CounterRegistry()
        reg.incr("a")
        reg.incr("a", 2.5)
        assert reg.get("a") == 3.5
        assert reg.get("missing") == 0.0

    def test_timer(self):
        reg = CounterRegistry()
        with reg.timer("phase"):
            pass
        assert reg.get("phase.calls") == 1
        assert reg.get("phase.seconds") >= 0.0

    def test_merge_with_prefix(self):
        a, b = CounterRegistry(), CounterRegistry()
        a.incr("x", 1)
        b.incr("x", 2)
        a.merge(b)
        assert a.get("x") == 3
        c = CounterRegistry()
        c.merge(b, prefix="eu0")
        assert c.get("eu0.x") == 2

    def test_merged_and_sorted_dict(self):
        parts = []
        for value in (1, 2, 3):
            reg = CounterRegistry()
            reg.incr("n", value)
            parts.append(reg)
        merged = CounterRegistry.merged(parts)
        assert merged.get("n") == 6
        merged.incr("a")
        assert list(merged.as_dict()) == ["a", "n"]


class TestCollector:
    def test_off_level_returns_none(self):
        assert make_collector(GpuConfig()) is None

    def test_unknown_level_rejected(self):
        config = dataclasses.replace(GpuConfig(), telemetry="verbose")
        with pytest.raises(ValueError, match="unknown telemetry level"):
            make_collector(config)
        with pytest.raises(ValueError, match="telemetry"):
            config.validate()

    def test_counters_level_collects_no_events(self):
        collector = make_collector(GpuConfig().with_telemetry("counters"))
        assert not collector.tracing
        collector.instant("gpu/dispatch", "wg_dispatch", 3)
        collector.span("gpu/mem", "mem_message", 3, 10)
        assert collector.events == []

    def test_result_merges_per_eu_counters(self):
        collector = TelemetryCollector("counters", num_eus=4)
        for eu_id in range(4):
            collector.eu(eu_id).counters.incr("issue.alu", eu_id + 1)
        collector.counters.incr("dispatch.workgroups", 2)
        result = collector.result(total_cycles=100)
        assert result.counters["issue.alu"] == 10
        assert result.counters["dispatch.workgroups"] == 2
        assert result.total_cycles == 100

    def test_result_events_sorted(self):
        collector = TelemetryCollector("trace", num_eus=1)
        collector.instant("gpu/a", "late", 50)
        collector.instant("gpu/a", "early", 10)
        result = collector.result(total_cycles=60)
        assert [e.name for e in result.events] == ["early", "late"]


class TestTelemetryResultMerge:
    def test_events_shifted_by_cumulative_cycles(self):
        first = TelemetryResult("trace", {"n": 1.0},
                                [Event("i", "gpu/a", "x", 5)], 100)
        second = TelemetryResult("trace", {"n": 2.0},
                                 [Event("i", "gpu/a", "y", 7)], 50)
        merged = TelemetryResult.merge([first, second])
        assert merged.counters == {"n": 3.0}
        assert [(e.name, e.ts) for e in merged.events] == [("x", 5), ("y", 107)]
        assert merged.total_cycles == 150

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            TelemetryResult.merge([TelemetryResult("trace"),
                                   TelemetryResult("counters")])


class TestInstrumentedRuns:
    def test_summaries_bit_identical_with_and_without_telemetry(self):
        # Fresh workload instances per run: buffers are mutated in place.
        baseline = _run("nested_l3", level="off")
        traced = _run("nested_l3", level="trace")
        assert baseline.telemetry is None
        assert traced.telemetry is not None
        assert baseline.summary() == traced.summary()
        assert baseline.total_cycles == traced.total_cycles

    def test_summary_attaches_counters_on_request(self):
        result = _run("va", level="counters")
        base = result.summary()
        extended = result.summary(telemetry=True)
        assert all(extended[k] == v for k, v in base.items())
        assert extended["telemetry.issue.total"] == result.instructions
        assert not any(k.startswith("telemetry.") for k in base)

    def test_counter_level_skips_events(self):
        result = _run("nested_l2", level="counters")
        assert result.telemetry.events == []
        assert result.telemetry.counters["issue.total"] > 0

    def test_bcc_per_quad_events(self):
        result = _run("nested_l3", policy=CompactionPolicy.BCC, level="trace")
        names = {e.name for e in result.telemetry.events}
        assert {"quad_exec", "quad_skip"} <= names
        counters = result.telemetry.counters
        assert counters["compaction.quads_executed"] > 0
        assert counters["compaction.quads_skipped"] > 0
        skips = [e for e in result.telemetry.events if e.name == "quad_skip"]
        assert all(e.args["policy"] == "bcc" for e in skips)

    def test_scc_swizzle_events(self):
        result = _run("nested_l3", policy=CompactionPolicy.SCC, level="trace")
        events = result.telemetry.events
        swizzles = [e for e in events if e.name == "swizzle"]
        assert len(swizzles) == result.telemetry.counters["compaction.swizzles"]
        assert all({"out_lane", "quad", "src_lane"} <= set(e.args)
                   for e in swizzles)
        assert any(e.name == "quad_skip" and e.args["policy"] == "scc"
                   for e in events)

    def test_stall_and_occupancy_events(self):
        result = _run("nested_l2", level="trace")
        events = result.telemetry.events
        assert any(e.name.startswith("stall_") for e in events)
        occupancy = [e for e in events if e.name == "active_lanes"]
        assert occupancy and all(e.ph == "C" for e in occupancy)

    def test_multi_launch_merge_offsets_events(self):
        # bfs launches one kernel per frontier level; merged telemetry
        # must cover the summed cycle range with monotonic track times.
        result = _run("bfs", level="trace")
        telemetry = result.telemetry
        assert telemetry.total_cycles == result.total_cycles
        assert max(e.ts for e in telemetry.events) <= telemetry.total_cycles
        last = {}
        for event in telemetry.events:
            assert event.ts >= last.get(event.track, 0)
            last[event.track] = event.ts

    def test_issue_counters_match_instruction_count(self):
        result = _run("va", level="counters")
        assert result.telemetry.counters["issue.total"] == result.instructions
        assert (result.telemetry.counters["threads.retired"]
                == result.telemetry.counters["threads.dispatched"])


class TestChromeTrace:
    def test_export_validates_and_contains_quad_decisions(self, tmp_path):
        result = _run("nested_l3", policy=CompactionPolicy.BCC, level="trace")
        path = tmp_path / "trace.json"
        count = export_chrome_trace(result.telemetry, path,
                                    kernel="nested_l3", policy="bcc")
        assert count == validate_chrome_trace(path)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["kernel"] == "nested_l3"
        names = {r["name"] for r in payload["traceEvents"]}
        assert {"quad_exec", "quad_skip", "active_lanes",
                "process_name", "thread_name"} <= names

    def test_eu_processes_and_gpu_process(self):
        result = _run("va", level="trace")
        payload = chrome_trace_dict(result.telemetry)
        meta = [r for r in payload["traceEvents"]
                if r["ph"] == "M" and r["name"] == "process_name"]
        labels = {r["args"]["name"] for r in meta}
        assert "GPU" in labels
        assert any(label.startswith("EU") for label in labels)

    def test_span_records_have_duration(self):
        result = _run("va", level="trace")
        payload = chrome_trace_dict(result.telemetry)
        spans = [r for r in payload["traceEvents"] if r["ph"] == "X"]
        assert spans and all(r["dur"] >= 1 for r in spans)

    def test_export_without_telemetry_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no telemetry"):
            export_chrome_trace(None, tmp_path / "trace.json")

    def test_validator_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="missing required key 'ts'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "i"}]})
        with pytest.raises(ValueError, match="missing 'dur'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                                  "pid": 0, "tid": 0}]})

    def test_validator_rejects_time_travel(self):
        events = [{"name": "a", "ph": "i", "ts": 10, "pid": 0, "tid": 0},
                  {"name": "b", "ph": "i", "ts": 5, "pid": 0, "tid": 0}]
        with pytest.raises(ValueError, match="monotonicity"):
            validate_chrome_trace({"traceEvents": events})


class TestDisabledPathOverhead:
    def test_disabled_run_never_constructs_a_collector(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("collector constructed with telemetry off")

        monkeypatch.setattr(TelemetryCollector, "__init__", boom)
        result = _run("nested_l1", level="off")
        assert result.telemetry is None

    def test_disabled_guard_overhead_under_five_percent(self):
        # No pre-telemetry build exists to diff against, so bound the
        # overhead from first principles: the disabled path adds only
        # `self.telemetry is not None` style guards.  Measure the cost
        # of one guard, multiply by a generous guards-per-instruction
        # allowance, and require the total to stay under 5% of the
        # measured run time.
        start = time.perf_counter()
        result = _run("nested_l2", level="off")
        run_seconds = time.perf_counter() - start

        class Probe:
            telemetry = None
            hostprof = None

        probe = Probe()
        trials = 200_000
        start = time.perf_counter()
        hits = 0
        for _ in range(trials):
            if probe.telemetry is not None:
                hits += 1
            if probe.hostprof is not None:
                hits += 1
        guard_seconds = (time.perf_counter() - start) / (2 * trials)
        assert hits == 0

        guards_per_instruction = 8  # actual sites: <= 4 on any issue path
        overhead = guard_seconds * guards_per_instruction * result.instructions
        assert overhead < 0.05 * run_seconds, (
            f"guard overhead {overhead:.4f}s exceeds 5% of {run_seconds:.4f}s")


class TestRunnerIntegration:
    def test_telemetry_level_joins_cache_key(self):
        from repro.runner import Job

        plain = Job("va", GpuConfig())
        counters = Job("va", GpuConfig().with_telemetry("counters"))
        traced = Job("va", GpuConfig().with_telemetry("trace"))
        assert len({plain.key, counters.key, traced.key}) == 3

    def test_telemetry_survives_cache_round_trip(self, tmp_path):
        from repro.runner import Job, ResultCache, Runner

        config = GpuConfig(policy=CompactionPolicy.SCC).with_telemetry("trace")
        runner = Runner(workers=1, cache=ResultCache(tmp_path))
        first = runner.run_one("nested_l1", config)
        again = runner.run_one("nested_l1", config)
        assert runner.last_stats.cache_hits == 1
        assert again.telemetry is not None
        assert again.telemetry.counters == first.telemetry.counters
        assert len(again.telemetry.events) == len(first.telemetry.events)

    def test_run_stats_throughput_accounting(self, tmp_path):
        from repro.runner import Runner

        runner = Runner(workers=1, cache=False)
        result = runner.run_one("nested_l1")
        stats = runner.last_stats
        assert stats.host_seconds > 0
        assert stats.total_cycles == result.total_cycles
        assert stats.cycles_per_second == pytest.approx(
            stats.total_cycles / stats.host_seconds)
