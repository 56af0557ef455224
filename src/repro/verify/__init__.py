"""Cross-policy differential verification harness (``repro verify``).

Three evidence layers certify that the simulator's four compaction
policies (RAW/IVB/BCC/SCC) are timing-only variants of one machine:

1. :mod:`repro.verify.differential` — every registered workload run
   under all four policies with bit-identical outputs, identical
   instruction streams/statistics, and ordered cycle counts;
2. :mod:`repro.verify.properties` — randomized property checks of the
   analytic cycle models, SCC schedules, crossbar control words, and
   stats accumulators, plus a simulator-vs-trace-profiler replay check;
3. :mod:`repro.verify.report` — the typed violation report and JSON
   artifact both layers feed, with :mod:`repro.errors` exit codes.

A fourth, engine-parity layer (:mod:`repro.verify.engines`) runs each
workload under both execution engines — the interleaved interpreter and
the two-phase functional+replay fast core — and requires bit-identical
digests, instruction counts, stats fingerprints, and (for
mask-deterministic workloads) exact ``total_cycles``.  It is on by
default; ``repro verify --no-engine-parity`` skips it.

:func:`run_verify` is the orchestration entry point the CLI wraps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..gpu.config import GpuConfig
from ..runner import Runner
from .differential import (
    TIMED_ORDERING_TOLERANCE,
    VERIFIED_POLICIES,
    run_differential,
    verifiable_workloads,
    verify_workload_results,
)
from .engines import (
    ENGINE_TIMING_TOLERANCE,
    run_engine_parity,
    verify_engine_results,
)
from .properties import (
    TracedRun,
    fuzz_masks,
    random_mask,
    verify_sim_vs_profiler,
)
from .report import (
    ARTIFACT_SCHEMA,
    PropertyReport,
    VerifyReport,
    Violation,
    WorkloadVerdict,
    error_verdict,
)

#: Workloads the simulator-vs-profiler replay runs on by default: small
#: and shape-diverse (coherent, data-divergent, nested-control-flow,
#: loop-divergent).  Each replays the trace of its own base-policy
#: differential run, so the check adds no simulation; a name outside the
#: verified list costs one traced run.
SIM_VS_PROFILER_DEFAULT = ("va", "gnoise", "bsearch", "bsort")


def run_verify(
    names: Optional[Sequence[str]] = None,
    base_config: Optional[GpuConfig] = None,
    runner: Optional[Runner] = None,
    fuzz_iterations: int = 500,
    seed: int = 0,
    profiler_names: Optional[Sequence[str]] = None,
    timed_tolerance: float = TIMED_ORDERING_TOLERANCE,
    engine_parity: bool = True,
) -> VerifyReport:
    """Run the full verification harness and aggregate one report.

    *names* defaults to every non-fault registry workload.  Differential
    simulations go through the shared runner (parallel + cached); the
    fuzz layer is pure analytics; the sim-vs-profiler replay runs on
    *profiler_names* (default: a small shape-diverse subset of *names*).
    Their base-policy differential jobs run traced, and the replay reads
    those runs, so every simulation here runs once; a profiler name
    outside *names* gets one traced run of its own.  With
    *engine_parity* (the default), each workload additionally runs
    under both execution engines and the results are cross-checked —
    the interp leg dedupes against the differential runs through the
    result cache, so the marginal cost is one fast run per workload.
    """
    workload_names = list(names) if names is not None else verifiable_workloads()
    base = base_config if base_config is not None else GpuConfig()
    if profiler_names is None:
        profiler_names = [name for name in SIM_VS_PROFILER_DEFAULT
                          if name in workload_names]
    traced = [TracedRun(name, base) for name in profiler_names]
    report = VerifyReport()
    report.workloads = run_differential(workload_names, base, runner,
                                        timed_tolerance=timed_tolerance,
                                        traced=traced)
    if engine_parity:
        report.workloads.extend(
            run_engine_parity(workload_names, base_config, runner))
    if fuzz_iterations > 0:
        report.properties.extend(fuzz_masks(fuzz_iterations, seed=seed))
    if profiler_names:
        report.properties.append(verify_sim_vs_profiler(
            profiler_names, base, runner, traced=traced))
    return report


__all__ = [
    "ARTIFACT_SCHEMA",
    "ENGINE_TIMING_TOLERANCE",
    "PropertyReport",
    "SIM_VS_PROFILER_DEFAULT",
    "TIMED_ORDERING_TOLERANCE",
    "TracedRun",
    "VERIFIED_POLICIES",
    "VerifyReport",
    "Violation",
    "WorkloadVerdict",
    "error_verdict",
    "fuzz_masks",
    "random_mask",
    "run_differential",
    "run_engine_parity",
    "run_verify",
    "verifiable_workloads",
    "verify_engine_results",
    "verify_sim_vs_profiler",
    "verify_workload_results",
]
