"""Cross-policy differential verification of the simulator.

The paper's results pipeline rests on one invariant family: RAW, IVB,
BCC, and SCC are *timing* configurations of the same machine, so for any
workload they must be functionally identical (same output buffers, same
dynamic instruction stream, same SIMD efficiency) and timing-ordered
(compaction only removes cycles: ``SCC <= BCC <= IVB <= RAW``).  This
module executes every requested workload under all four policies through
the shared :class:`~repro.runner.Runner` (deduplicated, cached, fault
tolerant) and checks:

* **functional identity** — bit-identical output-buffer digests,
  identical dynamic instruction counts, identical SIMD efficiency;
* **stat identity** — the full :class:`~repro.core.stats.CompactionStats`
  fingerprint (lane-slot totals, per-policy analytic cycles, every
  utilization bucket, swizzle and RF-access counters) agrees across the
  four runs, for the ALU-only and the all-SIMD accumulators;
* **cycle ordering** — the timed ``total_cycles`` obey
  ``SCC <= BCC <= IVB <= RAW``, and within every run the analytic ALU
  cycle counts obey the same ordering in aggregate (the per-(mask,width)
  ordering is fuzzed exhaustively in :mod:`repro.verify.properties`);
* **plumbing consistency** — each result is labelled with the policy
  that produced it and its ``eu_cycles`` equals its own analytic count.

Two measured relaxations, both deliberate:

* The *analytic* per-instruction ordering is exact, but the *timed*
  end-to-end ordering is checked with a small relative tolerance
  (:data:`TIMED_ORDERING_TOLERANCE`): changing the EU's cycle usage
  shifts when memory requests are injected, and the perturbed
  workgroup/memory interleaving moves total cycles by a fraction of a
  percent in either direction — scheduling noise, not a modelling bug.
  A genuine ordering inversion is orders of magnitude larger.
* Workloads whose ``Workload.mask_deterministic`` is False (benign
  intra-launch races, e.g. level-synchronous BFS) keep the functional
  checks — identical buffers, instruction counts — but skip the mask
  statistics identity, which legitimately varies with interleaving.

A workload whose simulation fails outright (deadlock, timeout, crash,
host-reference mismatch) yields an error verdict carrying the typed
failure instead of a violation list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from ..core.policy import POLICY_ORDER, CompactionPolicy
from ..core.stats import CompactionStats
from ..gpu.config import GpuConfig
from ..gpu.results import KernelRunResult
from ..runner import Job, Runner, default_runner
from .report import Violation, WorkloadVerdict, error_verdict

if TYPE_CHECKING:
    from .properties import TracedRun

#: Policies every workload is differentially executed under, in
#: non-increasing expected cycle order.
VERIFIED_POLICIES = POLICY_ORDER  # RAW, IVB, BCC, SCC

#: Relative slack allowed when comparing *timed* total cycles across
#: policies.  Empirically the interleaving noise is below 0.5 % on every
#: registry workload; real inversions (a policy that actually costs
#: cycles) are far larger.
TIMED_ORDERING_TOLERANCE = 0.01


def verifiable_workloads() -> List[str]:
    """Registry workloads eligible for verification (faults excluded)."""
    from ..kernels import FAULT_WORKLOADS, WORKLOAD_REGISTRY

    return [name for name in WORKLOAD_REGISTRY if name not in FAULT_WORKLOADS]


def _mask_deterministic(name: str) -> bool:
    """Whether *name*'s execution masks are interleaving-independent."""
    from ..kernels import WORKLOAD_REGISTRY

    factory = WORKLOAD_REGISTRY.get(name)
    if factory is None:
        return True
    return factory().mask_deterministic


def _stats_fingerprint(stats: CompactionStats) -> Dict[str, object]:
    """Policy-independent fingerprint of one stats accumulator.

    Everything here is a pure function of the executed ``(mask, width,
    dtype, operands)`` stream, so it must be identical no matter which
    policy timed the run.
    """
    return {
        "instructions": stats.instructions,
        "enabled_lane_slots": stats.enabled_lane_slots,
        "issued_lane_slots": stats.issued_lane_slots,
        "cycles": {policy.value: stats.cycles[policy]
                   for policy in POLICY_ORDER},
        "buckets": dict(sorted(stats.bucket_counts.items())),
        "scc_swizzles": stats.scc_swizzles,
        "rf_accesses_baseline": stats.rf_accesses_baseline,
        "rf_accesses_bcc": stats.rf_accesses_bcc,
    }


def _check_ordering(scope: str, check: str, label: str,
                    values: Dict[CompactionPolicy, int],
                    tolerance: float = 0.0) -> List[Violation]:
    """SCC <= BCC <= IVB <= RAW over *values* (one Violation per break).

    *tolerance* is the allowed relative excess of the nominally-faster
    policy over the slower one (0.0 = exact ordering).
    """
    violations = []
    for faster, slower in zip(reversed(POLICY_ORDER),
                              list(reversed(POLICY_ORDER))[1:]):
        # reversed order: SCC, BCC, IVB, RAW — each must be <= the next.
        if values[faster] > values[slower] * (1.0 + tolerance):
            slack = (f" beyond the {tolerance:.2%} interleaving tolerance"
                     if tolerance else "")
            violations.append(Violation(
                scope=scope, check=check,
                message=(f"{label}: {faster.value}={values[faster]} > "
                         f"{slower.value}={values[slower]}{slack} "
                         f"(expected {faster.value} <= {slower.value})")))
    return violations


def verify_workload_results(
    name: str,
    results: Dict[CompactionPolicy, KernelRunResult],
    mask_deterministic: bool = True,
    timed_tolerance: float = 0.0,
) -> List[Violation]:
    """Cross-check one workload's four policy runs; returns violations.

    *mask_deterministic* False drops the mask-statistics identity checks
    (see module docstring); *timed_tolerance* relaxes only the timed
    ``total_cycles`` ordering, never the analytic one.
    """
    violations: List[Violation] = []
    missing = [p.value for p in VERIFIED_POLICIES if p not in results]
    if missing:
        violations.append(Violation(
            scope=name, check="missing-run",
            message=f"no result for policy/policies: {', '.join(missing)}"))
        return violations

    reference_policy = VERIFIED_POLICIES[0]
    reference = results[reference_policy]

    for policy in VERIFIED_POLICIES:
        result = results[policy]

        # Plumbing: the result must be labelled with the policy that
        # produced it, and its timed EU-cycle count must agree with its
        # own analytic accumulator.
        if result.policy is not policy:
            violations.append(Violation(
                scope=name, check="policy-label",
                message=f"run under {policy.value} is labelled "
                        f"{result.policy.value}"))
        if result.eu_cycles != result.alu_stats.cycles[result.policy]:
            violations.append(Violation(
                scope=name, check="eu-cycles-consistency",
                message=f"{policy.value}: eu_cycles={result.eu_cycles} != "
                        f"alu_stats.cycles[{result.policy.value}]="
                        f"{result.alu_stats.cycles[result.policy]}"))

        # Functional identity against the reference run.
        if result.buffers_digest is None:
            violations.append(Violation(
                scope=name, check="functional-identity",
                message=f"{policy.value}: result carries no output-buffer "
                        f"digest (stale cache entry?)"))
        elif result.buffers_digest != reference.buffers_digest:
            violations.append(Violation(
                scope=name, check="functional-identity",
                message=f"output buffers differ: {policy.value} digest "
                        f"{result.buffers_digest[:16]}... != "
                        f"{reference_policy.value} digest "
                        f"{(reference.buffers_digest or 'none')[:16]}..."))
        if result.instructions != reference.instructions:
            violations.append(Violation(
                scope=name, check="instruction-count",
                message=f"{policy.value} executed {result.instructions} "
                        f"instructions, {reference_policy.value} executed "
                        f"{reference.instructions}"))
        if (mask_deterministic
                and result.simd_efficiency != reference.simd_efficiency):
            violations.append(Violation(
                scope=name, check="simd-efficiency",
                message=f"{policy.value} efficiency "
                        f"{result.simd_efficiency!r} != "
                        f"{reference_policy.value} efficiency "
                        f"{reference.simd_efficiency!r}"))

        # Stat identity: the full accumulator fingerprints must agree
        # (mask-deterministic workloads only — racy masks shift buckets).
        if mask_deterministic:
            for label, stats, ref_stats in (
                ("alu_stats", result.alu_stats, reference.alu_stats),
                ("simd_stats", result.simd_stats, reference.simd_stats),
            ):
                fp, ref_fp = (_stats_fingerprint(stats),
                              _stats_fingerprint(ref_stats))
                if fp != ref_fp:
                    diffs = [key for key in fp if fp[key] != ref_fp[key]]
                    violations.append(Violation(
                        scope=name, check="stats-identity",
                        message=f"{label} diverges between {policy.value} "
                                f"and {reference_policy.value} in: "
                                f"{', '.join(diffs)}"))

        # Analytic cycle ordering inside each run (aggregate; the fuzz
        # layer covers per-(mask,width) ordering exhaustively).
        for label, stats in (("alu_stats", result.alu_stats),
                             ("simd_stats", result.simd_stats)):
            violations.extend(_check_ordering(
                name, "analytic-cycle-ordering",
                f"{policy.value} {label} cycles", stats.cycles))

    # Timed cycle ordering across the four runs (interleaving tolerance).
    violations.extend(_check_ordering(
        name, "timed-cycle-ordering", "total_cycles",
        {policy: results[policy].total_cycles
         for policy in VERIFIED_POLICIES},
        tolerance=timed_tolerance))
    return violations


def _metrics(results: Dict[CompactionPolicy, KernelRunResult]) -> Dict[str, Dict[str, object]]:
    """Per-policy headline metrics for the artifact."""
    out: Dict[str, Dict[str, object]] = {}
    for policy, result in results.items():
        out[policy.value] = {
            "total_cycles": result.total_cycles,
            "eu_cycles": result.eu_cycles,
            "instructions": result.instructions,
            "simd_efficiency": round(result.simd_efficiency, 9),
            "buffers_digest": result.buffers_digest,
        }
    return out


def run_differential(
    names: Optional[Sequence[str]] = None,
    base_config: Optional[GpuConfig] = None,
    runner: Optional[Runner] = None,
    policies: Iterable[CompactionPolicy] = VERIFIED_POLICIES,
    timed_tolerance: float = TIMED_ORDERING_TOLERANCE,
    traced: Iterable["TracedRun"] = (),
) -> List[WorkloadVerdict]:
    """Differentially verify *names* (default: every non-fault workload).

    All ``len(names) * 4`` simulations go to the shared runner as one
    batch, so they are deduplicated against (and feed) the same on-disk
    result cache every experiment uses.  Each of the *traced* runs whose
    job is in that batch executes with its trace sink attached and is
    settled from the batch; the others are left untouched.
    """
    ordered = list(names) if names is not None else verifiable_workloads()
    base = base_config if base_config is not None else GpuConfig()
    engine = runner if runner is not None else default_runner()
    policies = list(policies)

    jobs: Dict[tuple, Job] = {
        (name, policy): Job(name, base.with_policy(policy))
        for name in ordered for policy in policies
    }
    batch = set(jobs.values())
    traced = [run for run in traced if run.job in batch]
    results = engine.run(jobs.values(), strict=False,
                         trace_sinks={run.job: run.events for run in traced})
    for run in traced:
        run.settle(results, engine)
    failures = engine.last_stats.failures

    verdicts: List[WorkloadVerdict] = []
    for name in ordered:
        per_policy: Dict[CompactionPolicy, KernelRunResult] = {}
        error: Optional[BaseException] = None
        for policy in policies:
            job = jobs[(name, policy)]
            if job in results:
                per_policy[policy] = results[job]
            elif error is None and job.key in failures:
                error = failures[job.key]
        if error is not None:
            verdict = error_verdict(name, error)
            verdict.metrics = _metrics(per_policy)
            verdicts.append(verdict)
            continue
        verdicts.append(WorkloadVerdict(
            workload=name,
            violations=verify_workload_results(
                name, per_policy,
                mask_deterministic=_mask_deterministic(name),
                timed_tolerance=timed_tolerance),
            metrics=_metrics(per_policy),
        ))
    return verdicts
