"""Per-thread general register file (GRF).

Each EU thread owns 128 registers of 256 bits (paper Section 2.2),
modelled as one flat, typeless numpy array of 32-bit slots.  Operand
reads and writes view slices of this storage with the instruction's data
type, which reproduces the ISA's implicit register pairing: a SIMD16
32-bit operand starting at R8 occupies R8-R9 (16 consecutive slots).

Writes are masked per lane — disabled lanes keep their old register
contents, which is what makes predicated divergent execution (and the
write-back suppression of BCC/SCC) functionally transparent.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..isa.registers import NUM_GRF_REGS, RegRef
from ..isa.types import SLOTS_PER_REG


#: 32-bit slots in one thread's register file.
NUM_SLOTS = NUM_GRF_REGS * SLOTS_PER_REG


class RegisterFile:
    """Typeless 128 x 256-bit register storage of one thread.

    Operands address ``storage`` through :func:`operand_plan` and write
    it through :func:`masked_write`.
    """

    def __init__(self) -> None:
        self.storage = np.zeros(NUM_SLOTS, dtype=np.uint32)


def operand_plan(ref: RegRef, width: int) -> tuple:
    """``(lo, hi, view)``: the storage slots and view dtype of the *width*
    lanes starting at *ref*.

    Raises the ``ValueError`` of :meth:`RegRef.regs` when the operand
    runs past the last register.
    """
    ref.regs(width)
    start_slot = ref.reg * SLOTS_PER_REG
    slots = max(1, width * ref.dtype.size // 4)
    return start_slot, start_slot + slots, ref.dtype.np_dtype


def masked_write(view: np.ndarray, values, lane_mask: int, width: int) -> None:
    """Store *values*, converted to ``view.dtype``, in *view*'s lanes
    enabled by *lane_mask*.  Overlapping *values* and *view* are safe:
    numpy buffers an overlapping source before the copy."""
    values = np.asarray(values, dtype=view.dtype)
    if lane_mask == (1 << width) - 1:
        view[:] = values
    else:
        np.copyto(view, values, where=_mask_bools(lane_mask, width))


@lru_cache(maxsize=65536)
def _mask_bools_cached(mask: int, width: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 == 1 for i in range(width)], dtype=bool)


def _mask_bools(mask: int, width: int) -> np.ndarray:
    """Boolean lane-enable array for *mask* (lane 0 first).

    Cached; treat the result as read-only.
    """
    return _mask_bools_cached(mask, width)
