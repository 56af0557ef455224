"""Basic Cycle Compression (BCC), paper Sections 3.1 and 4.1.

BCC suppresses the quad micro-ops of a multi-cycle SIMD instruction whose
four lanes are **all disabled** by the execution mask.  For the SIMD16
example of Section 4.1::

    ADD(16) R12, R8, R10   [exec mask 0xF0F0]

the macro-instruction expands into four quartile micro-ops ``ADD.Q0`` ..
``ADD.Q3``; with mask ``0xF0F0`` quads 0 and 2 are empty, so BCC issues
only ``ADD.Q1`` and ``ADD.Q3`` — two cycles instead of four, and the
corresponding operand fetches and write-backs are suppressed as well
(register-file energy savings).

BCC subsumes the pre-existing Ivy Bridge half-mask rewrite: an empty
upper/lower SIMD16 half is exactly two empty aligned quads.  The paper
reports BCC benefit *beyond* the IVB rewrite, which this module supports
by exposing both the raw cycle count and the micro-op schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .quads import (
    QUAD_WIDTH,
    active_quad_count,
    clamp_mask,
    num_quads,
    quad_masks,
    validate_width,
)


@dataclass(frozen=True)
class QuadOp:
    """One quartile micro-op issued to the 4-wide ALU.

    Attributes:
        quad: index of the source quad within the macro-instruction
            (identifies the 128-bit register sub-field accessed).
        lane_enable: 4-bit enable mask for the lanes inside the quad;
            lanes disabled here are predicated off inside the ALU.
    """

    quad: int
    lane_enable: int

    def __post_init__(self) -> None:
        if self.quad < 0:
            raise ValueError(f"quad index must be non-negative, got {self.quad}")
        if not 0 <= self.lane_enable <= 0xF:
            raise ValueError(f"lane_enable must be a 4-bit mask, got {self.lane_enable}")


@dataclass(frozen=True)
class BccSchedule:
    """Result of BCC analysis for one instruction.

    Attributes:
        width: SIMD width of the analysed instruction.
        mask: execution mask the schedule was computed for.
        ops: quartile micro-ops actually issued, in quad order.
        suppressed: quad indices whose micro-op (and operand
            fetch/write-back) is suppressed.
    """

    width: int
    mask: int
    ops: Tuple[QuadOp, ...]
    suppressed: Tuple[int, ...]

    @property
    def cycles(self) -> int:
        """Execution cycles consumed (one per issued quad micro-op)."""
        return len(self.ops)

    @property
    def fetches_saved(self) -> int:
        """Operand-fetch/write-back quad accesses saved vs. the baseline."""
        return len(self.suppressed)


def bcc_schedule(mask: int, width: int) -> BccSchedule:
    """Compute the BCC micro-op schedule for ``(mask, width)``.

    Empty quads are suppressed; every non-empty quad issues one micro-op
    with its original lane-enable bits (no lane movement — BCC never
    swizzles).
    """
    validate_width(width)
    mask = clamp_mask(mask, width)
    ops: List[QuadOp] = []
    suppressed: List[int] = []
    for q, qm in enumerate(quad_masks(mask, width)):
        if qm:
            ops.append(QuadOp(quad=q, lane_enable=qm))
        else:
            suppressed.append(q)
    return BccSchedule(width=width, mask=mask, ops=tuple(ops), suppressed=tuple(suppressed))


def bcc_cycles(mask: int, width: int, dtype_factor: int = 1) -> int:
    """Execution cycles under BCC: one per non-empty quad.

    A fully masked-off instruction costs zero execution cycles (the issue
    slot is reused for the next instruction, per Section 3.1); timing
    models that still charge a decode/issue cycle should clamp externally.
    """
    if dtype_factor < 1:
        raise ValueError(f"dtype_factor must be >= 1, got {dtype_factor}")
    return active_quad_count(mask, width) * dtype_factor


def bcc_compressible_cycles(mask: int, width: int) -> int:
    """Number of quad cycles BCC removes relative to the raw baseline."""
    clamp_mask(mask, width)
    return num_quads(width) - active_quad_count(mask, width)


def bcc_register_accesses(mask: int, width: int, num_src: int = 2, num_dst: int = 1) -> int:
    """Half-register (128-bit) GRF accesses performed under BCC.

    The BCC register file (paper Figure 5b) fetches 128-bit half
    registers, one per issued quad per operand.  Used by the energy
    accounting in :mod:`repro.core.stats`.
    """
    if num_src < 0 or num_dst < 0:
        raise ValueError("operand counts must be non-negative")
    return active_quad_count(mask, width) * (num_src + num_dst)


def baseline_register_accesses(width: int, num_src: int = 2, num_dst: int = 1) -> int:
    """Half-register GRF accesses for the unoptimized baseline."""
    if num_src < 0 or num_dst < 0:
        raise ValueError("operand counts must be non-negative")
    return num_quads(width) * (num_src + num_dst)


def is_bcc_friendly(mask: int, width: int) -> bool:
    """True when BCC alone already achieves the optimal cycle count.

    This is the ``a_q_cnt == o_cyc_cnt`` early-out of the SCC algorithm
    (paper Figure 6): the active lanes are already packed into as few
    quads as a perfect compactor could use, so no swizzling is needed.
    """
    from .quads import optimal_cycles  # local import avoids cycle at module load

    return active_quad_count(mask, width) == optimal_cycles(mask, width)
