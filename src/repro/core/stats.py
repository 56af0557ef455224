"""Aggregation of compaction statistics over instruction streams.

The paper's figures are all derived from the same underlying measurement:
walk the dynamic instruction stream of a kernel (from the execution-driven
simulator or from a trace), look at each instruction's ``(width, mask,
dtype)``, and accumulate execution cycles under each compaction policy plus
the SIMD-utilization breakdown.  :class:`CompactionStats` is that
accumulator; both the simulator (:mod:`repro.gpu`) and the trace profiler
(:mod:`repro.trace.profiler`) feed it.

Derived quantities:

* **SIMD efficiency** (Figure 3): enabled lanes / issued lane slots.
* **Utilization buckets** (Figure 9): fraction of instructions with 1-4,
  5-8, 9-12, 13-16 active lanes (SIMD16) and 1-4, 5-8 (SIMD8).
* **EU-cycle reduction** (Figure 10, Table 4): percentage of IVB-baseline
  ALU cycles removed by BCC or SCC.
* **Register-file access savings** (Section 4.1 energy discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .bcc import baseline_register_accesses, bcc_register_accesses
from .policy import POLICY_ORDER, CompactionPolicy, execution_cycles
from .quads import clamp_mask, popcount, validate_width

#: SIMD-utilization buckets of paper Figure 9, as (width, lo, hi) -> label.
UTILIZATION_BUCKETS: Tuple[Tuple[int, int, int, str], ...] = (
    (16, 1, 4, "1-4/16"),
    (16, 5, 8, "5-8/16"),
    (16, 9, 12, "9-12/16"),
    (16, 13, 16, "13-16/16"),
    (8, 1, 4, "1-4/8"),
    (8, 5, 8, "5-8/8"),
)


def utilization_bucket(mask: int, width: int) -> str:
    """Label of the Figure 9 bucket for ``(mask, width)``.

    Widths other than 8/16 are labelled ``"<n>/<w>"`` so nothing is ever
    silently dropped; fully masked-off instructions bucket as ``"0/<w>"``.
    """
    active = popcount(clamp_mask(mask, width))
    for bucket_width, lo, hi, label in UTILIZATION_BUCKETS:
        if width == bucket_width and lo <= active <= hi:
            return label
    return f"{active}/{width}"


@dataclass
class CompactionStats:
    """Streaming accumulator of per-instruction compaction measurements.

    Args:
        min_cycles: issue-slot floor passed to
            :func:`repro.core.policy.execution_cycles`.  The cycle-level
            simulator uses 1 (a masked-off instruction still occupies its
            issue slot); pure analytic studies may use 0.
    """

    min_cycles: int = 1
    instructions: int = 0
    enabled_lane_slots: int = 0
    issued_lane_slots: int = 0
    cycles: Dict[CompactionPolicy, int] = field(
        default_factory=lambda: {p: 0 for p in POLICY_ORDER}
    )
    bucket_counts: Dict[str, int] = field(default_factory=dict)
    rf_accesses_baseline: int = 0
    rf_accesses_bcc: int = 0
    scc_swizzles: int = 0

    def record(
        self, mask: int, width: int, dtype_factor: int = 1, num_src: int = 2, num_dst: int = 1
    ) -> None:
        """Record one dynamically executed instruction."""
        active, cycles, label, active_quads, total_quads, swizzles = (
            _record_info(mask, width, dtype_factor, self.min_cycles)
        )
        self.instructions += 1
        self.enabled_lane_slots += active
        self.issued_lane_slots += width
        for policy, count in zip(POLICY_ORDER, cycles):
            self.cycles[policy] += count
        self.bucket_counts[label] = self.bucket_counts.get(label, 0) + 1
        operands = num_src + num_dst
        self.rf_accesses_baseline += total_quads * operands
        self.rf_accesses_bcc += active_quads * operands
        self.scc_swizzles += swizzles

    def record_bulk(
        self, mask: int, width: int, dtype_factor: int = 1, num_src: int = 2,
        num_dst: int = 1, count: int = 1,
    ) -> None:
        """Record *count* identical instructions in one call.

        Exactly equivalent to calling :meth:`record` *count* times —
        every counter update is linear in the event — but pays the
        per-event accounting once.  Both simulator engines aggregate
        each launch's issue stream into ``(signature, count)`` pairs and
        record them here, off the per-issue hot path (see
        :func:`repro.eu.eu.fold_issue_counts`).
        """
        active, cycles, label, active_quads, total_quads, swizzles = (
            _record_info(mask, width, dtype_factor, self.min_cycles)
        )
        self.instructions += count
        self.enabled_lane_slots += active * count
        self.issued_lane_slots += width * count
        for policy, cyc in zip(POLICY_ORDER, cycles):
            self.cycles[policy] += cyc * count
        self.bucket_counts[label] = self.bucket_counts.get(label, 0) + count
        operands = num_src + num_dst
        self.rf_accesses_baseline += total_quads * operands * count
        self.rf_accesses_bcc += active_quads * operands * count
        self.scc_swizzles += swizzles * count

    def record_stream(self, events: Iterable[Tuple[int, int]]) -> None:
        """Record an iterable of ``(mask, width)`` events."""
        for mask, width in events:
            self.record(mask, width)

    def merge(self, other: "CompactionStats") -> None:
        """Fold *other*'s counters into this accumulator."""
        if other.min_cycles != self.min_cycles:
            raise ValueError(
                f"cannot merge stats with different min_cycles "
                f"({self.min_cycles} vs {other.min_cycles})"
            )
        self.instructions += other.instructions
        self.enabled_lane_slots += other.enabled_lane_slots
        self.issued_lane_slots += other.issued_lane_slots
        for policy in POLICY_ORDER:
            self.cycles[policy] += other.cycles[policy]
        for label, count in other.bucket_counts.items():
            self.bucket_counts[label] = self.bucket_counts.get(label, 0) + count
        self.rf_accesses_baseline += other.rf_accesses_baseline
        self.rf_accesses_bcc += other.rf_accesses_bcc
        self.scc_swizzles += other.scc_swizzles

    # -- derived metrics ---------------------------------------------------

    @property
    def simd_efficiency(self) -> float:
        """Enabled lanes / issued lane slots over the whole stream (Fig. 3).

        1.0 for an empty stream by convention (an instruction-free kernel
        wastes nothing).
        """
        if self.issued_lane_slots == 0:
            return 1.0
        return self.enabled_lane_slots / self.issued_lane_slots

    def reduction_pct(
        self,
        policy: CompactionPolicy,
        baseline: CompactionPolicy = CompactionPolicy.IVB,
    ) -> float:
        """Percent of *baseline* ALU cycles removed by *policy*.

        This is the quantity plotted in Figure 10 and summarised in
        Table 4 ("EU cycles"), with the paper's convention of measuring
        beyond the existing Ivy Bridge optimization (``baseline=IVB``).
        """
        base = self.cycles[baseline]
        if base == 0:
            return 0.0
        return 100.0 * (base - self.cycles[policy]) / base

    def bucket_fractions(self) -> Dict[str, float]:
        """Fraction of instructions per utilization bucket (Fig. 9)."""
        if self.instructions == 0:
            return {}
        return {
            label: count / self.instructions
            for label, count in sorted(self.bucket_counts.items())
        }

    def rf_access_savings_pct(self) -> float:
        """Percent of half-register GRF accesses BCC suppresses (§4.1)."""
        if self.rf_accesses_baseline == 0:
            return 0.0
        saved = self.rf_accesses_baseline - self.rf_accesses_bcc
        return 100.0 * saved / self.rf_accesses_baseline

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline metrics, convenient for report tables."""
        return {
            "instructions": float(self.instructions),
            "simd_efficiency": self.simd_efficiency,
            "cycles_raw": float(self.cycles[CompactionPolicy.RAW]),
            "cycles_ivb": float(self.cycles[CompactionPolicy.IVB]),
            "cycles_bcc": float(self.cycles[CompactionPolicy.BCC]),
            "cycles_scc": float(self.cycles[CompactionPolicy.SCC]),
            "bcc_reduction_pct": self.reduction_pct(CompactionPolicy.BCC),
            "scc_reduction_pct": self.reduction_pct(CompactionPolicy.SCC),
            "rf_access_savings_pct": self.rf_access_savings_pct(),
        }


@lru_cache(maxsize=65536)
def _record_info(mask: int, width: int, dtype_factor: int, min_cycles: int):
    """Memoized per-(mask, width) accounting for :meth:`CompactionStats.record`."""
    validate_width(width)
    mask = clamp_mask(mask, width)
    cycles = tuple(
        execution_cycles(mask, width, policy, dtype_factor, min_cycles)
        for policy in POLICY_ORDER
    )
    from .quads import active_quad_count, num_quads
    from .scc import scc_schedule

    return (
        popcount(mask),
        cycles,
        utilization_bucket(mask, width),
        active_quad_count(mask, width),
        num_quads(width),
        scc_schedule(mask, width).swizzle_count,
    )


def is_divergent(efficiency: float, threshold: float = 0.95) -> bool:
    """Paper's coherent/divergent split: divergent iff efficiency < 95 %."""
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"SIMD efficiency must be in [0, 1], got {efficiency}")
    return efficiency < threshold
