"""Observers see the production scan, and both engines look the same to them.

Telemetry, the host profiler and a trace sink are hooks in the one
arbitration scan both engines run (``ExecutionUnit.step``); none of them
selects another code path.  So on mask-deterministic workloads the fast
engine must hand every observer exactly what the interp engine hands it,
and attaching an observer must not change a run's timing, outputs or
statistics on either engine.
"""

from functools import lru_cache

import pytest

from repro.core.policy import CompactionPolicy
from repro.gpu.config import GpuConfig
from repro.kernels import WORKLOAD_REGISTRY, run_workload
from repro.telemetry import chrome_trace_dict
from repro.telemetry.hostprof import HostProfiler

CASES = [(name, policy)
         for name in ("nested_l3", "gnoise", "bsearch")
         for policy in (CompactionPolicy.BCC, CompactionPolicy.SCC)]
ENGINES = ("interp", "fast")
OBSERVERS = ("counters", "trace", "sink", "hostprof")


@lru_cache(maxsize=None)
def _observed(name, policy, engine, observer):
    """``(result, extra)`` of one run; *extra* is what the observer saw."""
    config = GpuConfig(policy=policy, engine=engine)
    workload = WORKLOAD_REGISTRY[name]()
    if observer in ("counters", "trace"):
        return run_workload(workload, config.with_telemetry(observer)), None
    if observer == "sink":
        sink = []
        return run_workload(workload, config, trace_sink=sink), sink
    if observer == "hostprof":
        with HostProfiler(interval=0.05) as profiler:
            result = run_workload(workload, config, hostprof=profiler)
        return result, dict(profiler.opcode_calls)
    assert observer == "off"
    return run_workload(workload, config), None


def _fingerprint(result, bucket_order=True):
    """What a run computed.  Bucket insertion order is part of it within
    one engine; across engines it is not (fast folds its stats in trace
    order, interp in issue order)."""
    fingerprint = (result.total_cycles, result.instructions,
                   result.buffers_digest, result.alu_stats,
                   result.simd_stats)
    if bucket_order:
        fingerprint += (list(result.alu_stats.bucket_counts.items()),
                        list(result.simd_stats.bucket_counts.items()))
    return fingerprint


def _ids(case):
    return f"{case[0]}-{case[1].value}"


@pytest.fixture(params=CASES, ids=_ids)
def case(request):
    return request.param


class TestEnginesLookAlikeToObservers:
    def test_chrome_trace_events_equal(self, case):
        interp, _ = _observed(*case, "interp", "trace")
        fast, _ = _observed(*case, "fast", "trace")
        events = chrome_trace_dict(interp.telemetry)["traceEvents"]
        assert len(events) > 1000
        assert chrome_trace_dict(fast.telemetry)["traceEvents"] == events

    def test_counter_dicts_equal(self, case):
        interp, _ = _observed(*case, "interp", "counters")
        fast, _ = _observed(*case, "fast", "counters")
        counters = interp.telemetry.counters
        assert counters["issue.total"] == interp.instructions
        assert counters["scoreboard.reg_writes"] > 0
        assert fast.telemetry.counters == counters
        assert list(fast.telemetry.counters) == list(counters)

    def test_trace_sink_events_equal(self, case):
        _, interp_events = _observed(*case, "interp", "sink")
        _, fast_events = _observed(*case, "fast", "sink")
        assert interp_events
        assert fast_events == interp_events

    def test_hostprof_runs_equal(self, case):
        interp, interp_calls = _observed(*case, "interp", "hostprof")
        fast, fast_calls = _observed(*case, "fast", "hostprof")
        assert (_fingerprint(fast, bucket_order=False)
                == _fingerprint(interp, bucket_order=False))
        # Every issue is timed, on both engines, under its opcode.
        assert sum(interp_calls.values()) == interp.instructions
        assert fast_calls == interp_calls


class TestObserversDoNotPerturb:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_run_unchanged_by_observer(self, case, engine, observer):
        plain, _ = _observed(*case, engine, "off")
        observed, _ = _observed(*case, engine, observer)
        assert _fingerprint(observed) == _fingerprint(plain)


def test_nested_l3_scc_trace_size_pinned():
    # The event count of the reference trace; a hook that dropped or
    # duplicated a stall, issue or quad event on either engine moves it.
    interp, _ = _observed("nested_l3", CompactionPolicy.SCC, "interp", "trace")
    assert len(chrome_trace_dict(interp.telemetry)["traceEvents"]) == 46357
