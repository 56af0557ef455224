"""The two in-process workloads: ``sweep-cold`` and ``verify-parity``.

Both drive one ``repro.runner.Runner(workers=1)`` over a fresh, empty
``ResultCache`` per round.  A round is timed as a whole, minus the
calibration slices the host clock's timer slipped into it; the gap
between two runner progress events (minus slices) is that job's
submit-to-result latency.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import expected
from common import (BENCH, ENGINE, SWEEP_POLICIES, BenchError, HostClock,
                    Round, child_env, self_peak_rss_mb)


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str) -> None:
    """All lazy set-up a workload needs before its timed phase: imports,
    the workload registry, and one warm-up simulation per engine it uses."""
    import numpy  # noqa: F401

    from repro.core.policy import parse_policy
    from repro.dsl.stress import stress_batch
    from repro.gpu.config import GpuConfig
    from repro.runner import Job, Runner
    import repro.verify  # noqa: F401

    stress_batch(1)
    engines = ("interp", ENGINE) if workload == "verify-parity" else (ENGINE,)
    jobs = [Job("gnoise", GpuConfig(policy=parse_policy("scc"), engine=e),
                params={"n": 64}) for e in engines]
    Runner(workers=1, cache=False).run(jobs)


def setup_sample(workload: str) -> float:
    """Wall seconds from spawning a fresh interpreter until it finished
    :func:`setup` for *workload*."""
    tick = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", workload],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120)
    elapsed = time.perf_counter() - tick
    if proc.returncode != 0 or b"ready" not in proc.stdout:
        raise BenchError(f"set-up probe failed: {proc.stderr[-500:]!r}")
    return elapsed


# ---------------------------------------------------------------------------
# Rounds


def _timed_round(body: Callable[[object], None], clock: Optional[HostClock],
                 cache_dir: Path) -> Round:
    """Run ``body(runner)`` once against a fresh cache, sampling the host
    on *clock*'s timer; without a clock (the traced run) no calibration
    slices are taken."""
    from repro.runner import ResultCache, Runner

    def paused() -> float:
        return clock.paused if clock is not None else 0.0

    def cal_cpu() -> float:
        return clock.cpu if clock is not None else 0.0

    events: list = []
    latencies: List[float] = []
    marks: List[int] = []  # calibration slices taken by each job's end
    last = [0.0, 0.0]  # perf_counter() and paused() at the previous job

    def progress(event) -> None:
        now, held = time.perf_counter(), paused()
        latencies.append((now - last[0]) - (held - last[1]))
        marks.append(len(clock.slices) if clock is not None else 0)
        events.append(event)
        last[:] = [now, held]

    runner = Runner(workers=1, cache=ResultCache(cache_dir), verify=True,
                    progress=progress, retries=0, strict=False)
    sampling = clock.sampling() if clock is not None else nullcontext()
    first_mark = len(clock.slices) if clock is not None else 0
    cpu0, paused0, cal_cpu0 = time.process_time(), paused(), cal_cpu()
    start = time.perf_counter()
    last[:] = [start, paused0]
    with sampling:
        body(runner)
    end = time.perf_counter()
    cpu = time.process_time() - cpu0 - (cal_cpu() - cal_cpu0)
    executed = [e for e in events if e.status == "executed"]
    local = (_local_slices(clock.slices, [first_mark] + marks)
             if clock is not None else [])
    return Round(wall=end - start - (paused() - paused0), cpu=cpu,
                 jobs=len(executed),
                 instructions=sum(e.result.instructions for e in executed),
                 latencies=latencies, latency_slices=local,
                 window=(start, end), peak_rss_mb=self_peak_rss_mb())


def _local_slices(slices: List[float], marks: List[int]) -> List[float]:
    """Per job, the mean calibration slice taken while it ran (or, for a
    job shorter than the timer period, the next slice after it), so its
    latency is rescaled by the host state it actually saw."""
    out = []
    for lo, hi in zip(marks, marks[1:]):
        during = slices[lo:hi] or slices[hi:hi + 1] or slices[-1:]
        out.append(sum(during) / len(during))
    return out


# ---------------------------------------------------------------------------
# sweep-cold


def sweep_grid(seed: int, workloads: int = len(expected.SWEEP_WORKLOADS),
               stress_pick: int = expected.STRESS_PICK
               ) -> List[Tuple[str, str]]:
    """(workload, policy) points: the pinned figure list plus a stress
    slice the seed picks from the fixed pool, crossed with the policies.
    Smaller *workloads* / *stress_pick* only serve the self-check.

    ``stress_batch`` cycles its depth/trip/memory axes with period
    STRESS_PICK, so the seed draws one scenario from each residue class:
    every seed gets the same shape mix (and so about the same cost), with
    its own entropies and data seeds.
    """
    from repro.dsl.stress import stress_batch

    pool = stress_batch(expected.STRESS_POOL, seed=0)
    rng = random.Random(seed)
    stress = [rng.choice(pool[c::expected.STRESS_PICK])
              for c in range(stress_pick)]
    return [(name, policy)
            for name in list(expected.SWEEP_WORKLOADS[:workloads]) + stress
            for policy in SWEEP_POLICIES]


def sweep_round(grid, gate: expected.Gate, clock: Optional[HostClock],
                cache_dir: Path) -> Round:
    from repro.core.policy import parse_policy
    from repro.gpu.config import GpuConfig
    from repro.runner import Job

    jobs = {point: Job(point[0], GpuConfig(policy=parse_policy(point[1]),
                                           engine=ENGINE), verify=True)
            for point in grid}
    outcome: Dict[str, object] = {}

    def body(runner) -> None:
        outcome["results"] = runner.run(list(jobs.values()))
        outcome["failures"] = runner.last_stats.failures

    round_ = _timed_round(body, clock, cache_dir)
    results, failures = outcome["results"], outcome["failures"]
    for (name, policy), job in jobs.items():
        label = expected.key("sweep", name, policy)
        if job in results:
            r = results[job]
            gate.check(label, expected.fingerprint(
                r.buffers_digest, r.total_cycles, r.instructions))
        else:
            gate.expect(False, f"{label}: {failures.get(job.key)!r}")
    return round_


# ---------------------------------------------------------------------------
# verify-parity


def verify_round(seed: int, names, gate: expected.Gate,
                 clock: Optional[HostClock], cache_dir: Path) -> Round:
    from repro.core.policy import parse_policy
    from repro.gpu.config import GpuConfig
    from repro.verify import run_verify

    base = GpuConfig(policy=parse_policy("ivb"), engine="interp")
    outcome: Dict[str, object] = {}

    def body(runner) -> None:
        outcome["report"] = run_verify(
            list(names), base, runner=runner,
            seed=seed, engine_parity=True)

    round_ = _timed_round(body, clock, cache_dir)
    report = outcome["report"]
    gate.expect(report.passed, "; ".join(report.summary_lines()))
    for verdict in report.workloads:
        # Cross-policy verdicts key their metrics by policy; engine parity
        # verdicts ("<name>@engines") by engine, whose interp leg is the
        # ivb run of the same base config.
        name = verdict.workload.partition("@")[0]
        for column, m in verdict.metrics.items():
            column = "ivb" if column == "interp" else column
            gate.check(expected.key("verify", name, column),
                       expected.fingerprint(m["buffers_digest"],
                                            m["total_cycles"],
                                            m["instructions"]))
    return round_
