"""Property/fuzz layer of the verification harness.

Where :mod:`repro.verify.differential` cross-checks whole simulations,
this module attacks the analytic core directly: random ``(mask, width,
dtype_factor)`` streams are pushed through the cycle models, the SCC
schedule builder, the crossbar control-word encoder, and the stats
accumulators, and every paper-level invariant is asserted per case:

* **cycle-model** — per-instruction ordering ``SCC <= BCC <= IVB <= RAW``
  (with ``min_cycles`` of both 0 and 1), ``scc_cycles ==
  ceil(popcount/4) * dtype_factor == schedule length``, ``bcc_cycles ==
  active quads * dtype_factor``, and exact ``dtype_factor`` scaling;
* **schedule-partition** — every SCC schedule executes each active lane
  exactly once, never an inactive lane, never two elements on one ALU
  output slot;
* **unswizzle-inversion** — the write-back routing is the exact inverse
  permutation of the operand crossbar settings, cycle by cycle;
* **crossbar-roundtrip** — hardware control words encode/decode
  losslessly and the number of *activated* crossbar routes (source lane
  != output lane) equals ``SccSchedule.swizzle_count``;
* **stats-profiler-agreement** — :class:`~repro.core.stats.CompactionStats`
  fed by ``record`` and the trace profiler replaying the identical event
  stream agree on every counter, and merging split halves of a stream
  equals accumulating it whole.

:func:`verify_sim_vs_profiler` closes the loop between the two
evaluation paths of the paper (Section 5.1): the execution-driven
simulator's per-run ALU statistics must match an offline
:func:`~repro.trace.profiler.profile_trace` replay of the very trace the
run emitted.  The run is a :class:`TracedRun`: a runner job with a
profiling sink attached, which :func:`~repro.verify.run_verify` hands to the
differential batch so the check costs no simulation of its own.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.policy import POLICY_ORDER, CompactionPolicy, cycles_all_policies
from ..core.quads import (
    QUAD_WIDTH,
    active_quad_count,
    clamp_mask,
    optimal_cycles,
    popcount,
)
from ..core.scc import scc_cycles, scc_schedule, swizzle_settings_for_cycle
from ..core.scc_hw import decode_cycle, encode_cycle
from ..core.stats import CompactionStats
from ..errors import describe
from ..gpu.config import GpuConfig
from ..gpu.results import KernelRunResult
from ..runner import Job, Runner, default_runner
from ..trace.format import TraceEvent
from ..trace.profiler import ProfileSink, profile_trace
from .report import FAILED_RUN, PropertyReport, Violation

#: SIMD widths the fuzzer draws from (the multi-quad widths — SIMD1/4
#: are single-quad and degenerate for compaction).
FUZZ_WIDTHS: Tuple[int, ...] = (8, 16, 32)

#: Stats counters the profiler reproduces exactly from a trace.  The
#: ``rf_accesses_*`` counters are deliberately absent: traces carry no
#: operand counts, so the profiler records with the default 2-src/1-dst
#: shape while the simulator uses each instruction's real operands.
STREAM_COUNTERS: Tuple[str, ...] = (
    "instructions",
    "enabled_lane_slots",
    "issued_lane_slots",
    "scc_swizzles",
)


def random_mask(rng: random.Random, width: int) -> int:
    """Draw an execution mask biased toward interesting divergence shapes."""
    shape = rng.randrange(6)
    full = (1 << width) - 1
    if shape == 0:
        return 0  # fully masked off
    if shape == 1:
        return full  # fully coherent
    if shape == 2:
        return 1 << rng.randrange(width)  # single lane
    if shape == 3:  # sparse: few lanes
        lanes = rng.sample(range(width), k=rng.randrange(1, max(2, width // 4)))
        return sum(1 << lane for lane in lanes)
    if shape == 4:  # dense: few holes
        mask = full
        for lane in rng.sample(range(width), k=rng.randrange(1, max(2, width // 4))):
            mask &= ~(1 << lane)
        return mask
    return rng.getrandbits(width)  # uniform


def _fingerprint(stats: CompactionStats) -> Dict[str, object]:
    """Trace-reproducible counters of one accumulator (see STREAM_COUNTERS)."""
    fp: Dict[str, object] = {name: getattr(stats, name) for name in STREAM_COUNTERS}
    fp["cycles"] = {policy.value: stats.cycles[policy] for policy in POLICY_ORDER}
    fp["buckets"] = dict(sorted(stats.bucket_counts.items()))
    return fp


def _check_cycle_model(mask: int, width: int, factor: int,
                       case: str) -> List[Violation]:
    violations: List[Violation] = []
    scope = "property:cycle-model"
    for min_cycles in (0, 1):
        cycles = cycles_all_policies(mask, width, factor, min_cycles)
        ordered = [cycles[policy] for policy in POLICY_ORDER]
        if ordered != sorted(ordered, reverse=True):
            violations.append(Violation(
                scope=scope, check="policy-ordering",
                message=f"{case} min_cycles={min_cycles}: "
                        f"RAW>=IVB>=BCC>=SCC broken: "
                        + ", ".join(f"{p.value}={cycles[p]}"
                                    for p in POLICY_ORDER)))
    schedule = scc_schedule(mask, width)
    optimum = optimal_cycles(mask, width)
    if schedule.cycle_count != optimum:
        violations.append(Violation(
            scope=scope, check="scc-schedule-length",
            message=f"{case}: schedule has {schedule.cycle_count} cycles, "
                    f"optimal is {optimum}"))
    if scc_cycles(mask, width, factor) != optimum * factor:
        violations.append(Violation(
            scope=scope, check="scc-cycles-formula",
            message=f"{case}: scc_cycles={scc_cycles(mask, width, factor)} "
                    f"!= ceil(popcount/4)*factor={optimum * factor}"))
    from ..core.bcc import bcc_cycles
    if bcc_cycles(mask, width, factor) != active_quad_count(mask, width) * factor:
        violations.append(Violation(
            scope=scope, check="bcc-cycles-formula",
            message=f"{case}: bcc_cycles="
                    f"{bcc_cycles(mask, width, factor)} != "
                    f"active_quads*factor="
                    f"{active_quad_count(mask, width) * factor}"))
    base = cycles_all_policies(mask, width, 1, 0)
    scaled = cycles_all_policies(mask, width, factor, 0)
    for policy in POLICY_ORDER:
        if scaled[policy] != base[policy] * factor:
            violations.append(Violation(
                scope=scope, check="dtype-scaling",
                message=f"{case}: {policy.value} cycles do not scale "
                        f"linearly with dtype_factor: "
                        f"{scaled[policy]} != {base[policy]} * {factor}"))
    return violations


def _check_schedule(mask: int, width: int, case: str) -> List[Violation]:
    violations: List[Violation] = []
    schedule = scc_schedule(mask, width)

    # Partition: each active lane exactly once, nothing else.
    covered = sorted(schedule.covered_lanes())
    expected = [lane for lane in range(width) if (mask >> lane) & 1]
    if covered != expected:
        violations.append(Violation(
            scope="property:schedule-partition", check="lane-partition",
            message=f"{case}: schedule covers lanes {covered}, "
                    f"active lanes are {expected}"))

    unswizzle = schedule.unswizzle_settings()
    if len(unswizzle) != schedule.cycle_count:
        violations.append(Violation(
            scope="property:unswizzle-inversion", check="cycle-count",
            message=f"{case}: {len(unswizzle)} unswizzle cycles for "
                    f"{schedule.cycle_count} schedule cycles"))
    swizzles_seen = 0
    for index, cycle in enumerate(schedule.cycles):
        settings = swizzle_settings_for_cycle(cycle)

        # Inversion: routing each driven output lane's result through the
        # unswizzle settings must land exactly on the (quad, src_lane)
        # register position the operand crossbar read it from.
        inverse = {out_lane: (quad, dst_lane)
                   for out_lane, quad, dst_lane in unswizzle[index]}
        forward = {out_lane: source
                   for out_lane, source in enumerate(settings)
                   if source is not None}
        if inverse != forward:
            violations.append(Violation(
                scope="property:unswizzle-inversion", check="inversion",
                message=f"{case} cycle {index}: unswizzle {inverse} is not "
                        f"the inverse of swizzle {forward}"))

        # Hardware round-trip: the packed control word must decode back
        # to the same lane-slot assignments, and the number of activated
        # crossbar routes (source lane moved) must match swizzle_count.
        decoded = decode_cycle(encode_cycle(cycle, width))
        if sorted(decoded, key=lambda s: s.out_lane) != \
                sorted(cycle, key=lambda s: s.out_lane):
            violations.append(Violation(
                scope="property:crossbar-roundtrip", check="encode-decode",
                message=f"{case} cycle {index}: control word round-trip "
                        f"changed the schedule: {decoded} != {cycle}"))
        swizzles_seen += sum(1 for slot in decoded
                             if slot.src_lane != slot.out_lane)
    if swizzles_seen != schedule.swizzle_count:
        violations.append(Violation(
            scope="property:crossbar-roundtrip", check="swizzle-count",
            message=f"{case}: {swizzles_seen} activated crossbar routes "
                    f"!= swizzle_count {schedule.swizzle_count}"))
    return violations


def _check_stats_stream(events: Sequence[TraceEvent], seed: int) -> List[Violation]:
    """Stats/profiler/merge agreement over one random event stream."""
    violations: List[Violation] = []
    case = f"stream(seed={seed}, n={len(events)})"

    direct = CompactionStats(min_cycles=1)
    for event in events:
        direct.record(event.mask, event.width, event.dtype_factor)
    profiled = profile_trace("fuzz", events, min_cycles=1).stats
    if _fingerprint(direct) != _fingerprint(profiled):
        diffs = [key for key in _fingerprint(direct)
                 if _fingerprint(direct)[key] != _fingerprint(profiled)[key]]
        violations.append(Violation(
            scope="property:stats-profiler-agreement", check="stream-replay",
            message=f"{case}: profiler replay disagrees with direct "
                    f"accumulation in: {', '.join(diffs)}"))

    split = len(events) // 2
    left, right = CompactionStats(min_cycles=1), CompactionStats(min_cycles=1)
    for event in events[:split]:
        left.record(event.mask, event.width, event.dtype_factor)
    for event in events[split:]:
        right.record(event.mask, event.width, event.dtype_factor)
    left.merge(right)
    if _fingerprint(left) != _fingerprint(direct) or (
            left.rf_accesses_baseline != direct.rf_accesses_baseline
            or left.rf_accesses_bcc != direct.rf_accesses_bcc):
        violations.append(Violation(
            scope="property:stats-profiler-agreement", check="merge",
            message=f"{case}: merged split-halves accumulator disagrees "
                    f"with whole-stream accumulation"))
    return violations


def fuzz_masks(
    iterations: int = 500,
    seed: int = 0,
    widths: Sequence[int] = FUZZ_WIDTHS,
) -> List[PropertyReport]:
    """Fuzz the analytic core for *iterations* random cases per family."""
    rng = random.Random(seed)
    cycle_model: List[Violation] = []
    schedule: List[Violation] = []
    for _ in range(iterations):
        width = rng.choice(list(widths))
        mask = clamp_mask(random_mask(rng, width), width)
        factor = rng.choice((1, 1, 1, 2))  # mostly 32-bit, some 64-bit
        case = f"mask=0x{mask:X}/width={width}/factor={factor}"
        cycle_model.extend(_check_cycle_model(mask, width, factor, case))
        schedule.extend(_check_schedule(mask, width, case))

    stream_cases = max(1, iterations // 50)
    stream: List[Violation] = []
    for index in range(stream_cases):
        events = []
        for _ in range(rng.randrange(20, 200)):
            width = rng.choice(list(widths))
            events.append(TraceEvent(
                width=width,
                mask=clamp_mask(random_mask(rng, width), width),
                dtype_factor=rng.choice((1, 1, 2)),
            ))
        stream.extend(_check_stats_stream(events, seed=seed + index))

    def split(violations: List[Violation], scope: str) -> List[Violation]:
        return [v for v in violations if v.scope == f"property:{scope}"]

    return [
        PropertyReport("cycle-model", iterations, cycle_model, seed),
        PropertyReport("schedule-partition", iterations,
                       split(schedule, "schedule-partition"), seed),
        PropertyReport("unswizzle-inversion", iterations,
                       split(schedule, "unswizzle-inversion"), seed),
        PropertyReport("crossbar-roundtrip", iterations,
                       split(schedule, "crossbar-roundtrip"), seed),
        PropertyReport("stats-profiler-agreement", stream_cases, stream, seed),
    ]


class TracedRun:
    """One workload's base-policy job with a profiling sink attached.

    Whichever :meth:`Runner.run <repro.runner.Runner.run>` batch executes
    :attr:`job` profiles its trace into :attr:`sink` as the run emits it
    (no event stream is kept), and then :meth:`settle` records the
    job's result or failure, so the replay check reads the very run that
    batch produced.
    """

    def __init__(self, name: str, config: GpuConfig) -> None:
        self.job = Job(name, config)
        self.sink = ProfileSink(min_cycles=1)
        self.result: Optional[KernelRunResult] = None
        self.error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None

    def settle(self, results: Dict[Job, KernelRunResult],
               runner: Runner) -> None:
        """Take this job's outcome from a finished batch of *runner*."""
        self.result = results.get(self.job)
        self.error = runner.last_stats.failures.get(self.job.key)


def verify_sim_vs_profiler(
    names: Iterable[str],
    config: Optional[GpuConfig] = None,
    runner: Optional[Runner] = None,
    traced: Iterable[TracedRun] = (),
) -> PropertyReport:
    """Cross-check the simulator against the trace profiler per workload.

    Replays each workload's event stream, as the run emits it, through
    a :class:`~repro.trace.profiler.ProfileSink` (the replay of
    :func:`~repro.trace.profiler.profile_trace`) and requires the
    offline statistics to match the simulator's own ALU accumulator of the same
    run exactly (modulo the RF-access counters, which traces cannot
    carry).  This is the paper's two-methodology consistency argument
    made executable.

    *traced* holds runs another batch already made under *config* (see
    :func:`~repro.verify.run_verify`); every other name gets a traced
    job in one batch of its own on *runner* (default: the shared one).
    Traced jobs are never answered from the cache, so the check always
    replays a fresh trace.  A failed run is a violation naming it.
    """
    base = config if config is not None else GpuConfig()
    engine = runner if runner is not None else default_runner()
    given = {run.job: run for run in traced if run.done}
    runs = [given.setdefault(run.job, run)
            for run in (TracedRun(name, base) for name in names)]
    fresh = [run for run in runs if not run.done]
    if fresh:
        results = engine.run([run.job for run in fresh], strict=False,
                             trace_sinks={run.job: run.sink
                                          for run in fresh})
        for run in fresh:
            run.settle(results, engine)

    violations: List[Violation] = []
    for run in runs:
        name = run.job.workload
        if run.result is None:
            violations.append(Violation(
                scope="property:sim-vs-profiler", check=FAILED_RUN,
                message=f"{name}: the traced run failed: "
                        f"{describe(run.error)}"))
            continue
        alu_stats = run.result.alu_stats
        replayed = run.sink.stats()
        sim_fp, trace_fp = _fingerprint(alu_stats), _fingerprint(replayed)
        if sim_fp != trace_fp:
            diffs = [key for key in sim_fp if sim_fp[key] != trace_fp[key]]
            violations.append(Violation(
                scope="property:sim-vs-profiler", check="alu-stats",
                message=f"{name}: trace replay disagrees with the "
                        f"simulator's ALU stats in: {', '.join(diffs)} "
                        f"({sum(run.sink.counts.values())} traced events, "
                        f"simulator counted {alu_stats.instructions})"))
    return PropertyReport("sim-vs-profiler", len(runs), violations)
