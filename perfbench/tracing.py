"""Span tracing around the simulator's public layer entry points.

The traced run patches each layer's public function where its caller
looks it up, records one span per call (name, start, end, parent, job id)
in memory, and writes the spans out once the run ends.  Nothing in
``src/`` knows about it.

Self time is a span's duration minus the part its child spans cover;
whatever no layer span covers inside the accounted window is ``other``,
so the layer self times plus ``other`` add up to the window's wall time.

Span timestamps come from ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux), which every process on the host shares, so spans written by the
daemon and the worker can be clipped to the client's timed window.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layer span names and the per-layer metric each one's self time feeds.
SELF_TIME_METRICS = {
    "kernels.build": "kernels.build_s",
    "kernels.check": "kernels.check_s",
    "kernels.digest": "kernels.digest_s",
    "eu.batch.functional": "eu.batch.functional_s",
    "gpu.scan_fast": "gpu.scan_fast_s",
    "gpu.scan_interp": "gpu.scan_interp_s",
    "memory.access": "memory.access_s",
    "gpu.dispatch": "gpu.dispatch_s",
    "core.stats": "core.stats_s",
    "runner.run": "runner.self_s",
    "runner.cache_store": "runner.cache_store_s",
    "runner.cache_load": "runner.cache_load_s",
    "verify.differential": "verify.differential_s",
    "verify.engine_parity": "verify.engine_parity_s",
    "verify.fuzz": "verify.fuzz_s",
    "verify.sim_vs_profiler": "verify.sim_vs_profiler_s",
    "serve.worker.lease": "serve.worker.lease_s",
    "serve.worker.fetch": "serve.worker.fetch_s",
    "serve.worker.exec": "serve.worker.exec_s",
    "serve.worker.publish": "serve.worker.publish_s",
    "serve.worker.post": "serve.worker.post_s",
    "serve.journal.append": "serve.journal.append_s",
}

#: Span names whose call counts are per-layer metrics.
CALL_COUNT_METRICS = {
    "kernels.build": "kernels.builds",
    "eu.batch.functional": "eu.batch.functional_calls",
    "memory.access": "memory.accesses",
    "gpu.dispatch": "gpu.dispatch_calls",
    "serve.journal.append": "serve.journal.appends",
}

Span = Tuple[str, float, float, int, str]  # name, start, end, parent, job


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.job = ""
        #: (owner, attr, original, item) of every installed wrapper.
        self.patches: List[Tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.job))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def current(self) -> Optional[str]:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "counters": dict(self.counters)}))


def load_spans(path: Path) -> Tuple[List[Span], Dict[str, float]]:
    data = json.loads(path.read_text())
    return [tuple(s) for s in data["spans"]], data["counters"]


def account(spans: List[Span], window: Tuple[float, float]
            ) -> Tuple[Dict[str, float], Counter, float]:
    """Self time per span name inside *window*, call counts of spans that
    start inside it, and the window time no span covers (``other``).

    Spans are clipped to the window first, so a span straddling its edge
    contributes only its inside part, to itself and to its parent.
    """
    lo, hi = window
    clipped = [max(0.0, min(end, hi) - max(start, lo))
               for _, start, end, _, _ in spans]
    covered_by_children = [0.0] * len(spans)
    top_level = 0.0
    calls: Counter = Counter()
    for i, (name, start, _, parent, _) in enumerate(spans):
        if lo <= start < hi:
            calls[name] += 1
        if parent >= 0:
            covered_by_children[parent] += clipped[i]
        else:
            top_level += clipped[i]
    self_time: Dict[str, float] = {}
    for i, (name, *_rest) in enumerate(spans):
        own = clipped[i] - covered_by_children[i]
        self_time[name] = self_time.get(name, 0.0) + own
    return self_time, calls, max(0.0, (hi - lo) - top_level)


# ---------------------------------------------------------------------------
# Installing the wrappers


def _patch(tracer: Tracer, owner, attr: str, name,
           after: Optional[Callable] = None, item: bool = False) -> None:
    """Replace ``owner.attr`` (``owner[attr]`` with *item*) with a
    span-recording wrapper.

    *name* is a span name, a callable computing one from the call's
    arguments, or None to record no span; *after* sees ``(args, result)``
    for counters.
    """
    if item:
        raw = original = owner[attr]
    else:
        raw = inspect.getattr_static(owner, attr)
        original = (raw.__func__ if isinstance(raw, staticmethod)
                    else getattr(owner, attr))
    tracer.patches.append((owner, attr, raw, item))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        if label is None:
            result = original(*args, **kwargs)
        else:
            result = tracer.call(label, original, args, kwargs)
        if after is not None:
            after(args, result)
        return result

    if item:
        owner[attr] = wrapper
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(wrapper))
    else:
        setattr(owner, attr, wrapper)


def uninstall(tracer: Tracer) -> None:
    """Put back everything :func:`_patch` replaced, newest first."""
    for owner, attr, raw, item in reversed(tracer.patches):
        if item:
            owner[attr] = raw
        else:
            setattr(owner, attr, raw)
    tracer.patches.clear()


def install_simulation(tracer: Tracer) -> None:
    """Wrap the simulation layers: build, checks, functional pass, scan,
    memory, dispatch, trace stats, runner and result cache, verify."""
    import repro.eu.batch as batch
    import repro.eu.replay as replay
    import repro.kernels.workload as workload
    import repro.verify as verify
    from repro.gpu.dispatch import Launch
    from repro.gpu.simulator import GpuSimulator
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.runner import Job, ResultCache, Runner

    def build_span(args) -> str:
        tracer.job = args[0].key  # the spans that follow belong to this job
        return "kernels.build"

    _patch(tracer, Job, "build", build_span)
    _patch(tracer, workload.Workload, "verify", "kernels.check")
    # run_workload resolves digest_buffers through its module globals.
    _patch(tracer, workload, "digest_buffers", "kernels.digest")
    # GpuSimulator.run imports run_functional / record_trace_stats from
    # their modules at call time, so the module attributes are the seam.
    _patch(tracer, batch, "run_functional", "eu.batch.functional")
    _patch(tracer, replay, "record_trace_stats", "core.stats")
    _patch(tracer, GpuSimulator, "run",
           lambda args: f"gpu.scan_{args[0].config.engine}")
    _patch(tracer, MemoryHierarchy, "access", "memory.access")
    _patch(tracer, Launch, "dispatch", "gpu.dispatch")

    def count_executed(args, _result) -> None:
        tracer.counters["runner.executed"] += args[0].last_stats.executed

    _patch(tracer, Runner, "run", "runner.run", after=count_executed)

    def count_loads(_args, result) -> None:
        tracer.counters["runner.cache_hits" if result is not None
                        else "runner.cache_misses"] += 1

    def count_written(_args, data) -> None:
        if tracer.current() == "runner.cache_store":
            tracer.counters["runner.cache_bytes_written"] += len(data)

    def count_payload(args, _result) -> None:
        tracer.counters["runner.cache_bytes_written"] += len(args[2])

    _patch(tracer, ResultCache, "load", "runner.cache_load", after=count_loads)
    _patch(tracer, ResultCache, "fetch", "runner.cache_load")
    _patch(tracer, ResultCache, "store", "runner.cache_store")
    _patch(tracer, ResultCache, "store_payload", "runner.cache_store",
           after=count_payload)
    _patch(tracer, ResultCache, "serialize", None, after=count_written)
    # run_verify calls the names bound in repro.verify.
    _patch(tracer, verify, "run_differential", "verify.differential")
    _patch(tracer, verify, "run_engine_parity", "verify.engine_parity")
    _patch(tracer, verify, "fuzz_masks", "verify.fuzz")
    _patch(tracer, verify, "verify_sim_vs_profiler", "verify.sim_vs_profiler")


def install_worker(tracer: Tracer) -> None:
    """Wrap the worker-side serve hops (plus the simulation layers)."""
    install_simulation(tracer)
    import repro.kernels as kernels
    from repro.serve.client import ServeClient
    from repro.serve.worker import ServeWorker

    def note_job(_args, body) -> None:
        leases = body.get("leases") if isinstance(body, dict) else None
        if leases:
            tracer.job = leases[0].get("id", "")

    _patch(tracer, ServeClient, "lease", "serve.worker.lease", after=note_job)
    _patch(tracer, ServeClient, "cache_fetch", "serve.worker.fetch")
    _patch(tracer, ServeClient, "cache_publish", "serve.worker.publish")
    _patch(tracer, ServeClient, "post_result", "serve.worker.post")
    # The worker builds workloads straight from the registry's factories
    # and imports run_workload from repro.kernels at call time.
    for name in list(kernels.WORKLOAD_REGISTRY):
        _patch(tracer, kernels.WORKLOAD_REGISTRY, name, "kernels.build",
               item=True)
    _patch(tracer, kernels, "run_workload", "serve.worker.exec")
    _patch(tracer, ServeWorker, "run", "serve.worker.run")


def install_daemon(tracer: Tracer) -> None:
    """Wrap the daemon's journal appends (plus the simulation layers)."""
    install_simulation(tracer)
    from repro.serve.journal import ServeJournal

    _patch(tracer, ServeJournal, "append", "serve.journal.append")


INSTALLERS = {"simulation": install_simulation, "worker": install_worker,
              "daemon": install_daemon}


def layer_metrics(self_time: Dict[str, float], calls: Counter,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from accounted spans and counters."""
    out: Dict[str, float] = {metric: self_time.get(span, 0.0)
                             for span, metric in SELF_TIME_METRICS.items()}
    for span, metric in CALL_COUNT_METRICS.items():
        out[metric] = float(calls.get(span, 0))
    for name in ("runner.cache_bytes_written", "runner.executed",
                 "runner.cache_hits"):
        out[name] = float(counters.get(name, 0))
    return out


def unnamed_self_time(self_time: Dict[str, float]) -> float:
    """Self time of spans that feed no layer metric (the worker's loop);
    it belongs in ``other``."""
    return sum(value for name, value in self_time.items()
               if name not in SELF_TIME_METRICS)


def merge(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0.0) + value
    return total
