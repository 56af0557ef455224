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
from ..isa.types import SLOTS_PER_REG, DType


#: 32-bit slots in one thread's register file.
NUM_SLOTS = NUM_GRF_REGS * SLOTS_PER_REG


class RegisterFile:
    """Typeless 128 x 256-bit register storage with typed operand access."""

    def __init__(self) -> None:
        self._storage = np.zeros(NUM_SLOTS, dtype=np.uint32)

    def _operand_view(self, ref: RegRef, width: int) -> np.ndarray:
        """Typed view of the *width* lanes starting at *ref*."""
        lo, hi, view = operand_plan(ref, width)
        return self._storage[lo:hi].view(view)

    def read(self, ref: RegRef, width: int) -> np.ndarray:
        """Read a *width*-lane operand; returns a copy (safe to mutate)."""
        return self._operand_view(ref, width).copy()

    def write(self, ref: RegRef, width: int, values: np.ndarray, lane_mask: int) -> None:
        """Write a *width*-lane operand under *lane_mask*.

        Lanes whose mask bit is clear are untouched.  *values* may be any
        array broadcastable to *width* elements; it is converted to the
        operand's dtype.
        """
        masked_write(self._operand_view(ref, width), values, lane_mask, width)

    def broadcast(self, ref: RegRef, width: int, value) -> None:
        """Fill all *width* lanes of the operand with *value* (dispatch)."""
        view = self._operand_view(ref, width)
        view[:] = value

    def raw(self) -> np.ndarray:
        """The underlying uint32 storage (for tests and debugging)."""
        return self._storage


def operand_plan(ref: RegRef, width: int) -> tuple:
    """``(lo, hi, view)``: the storage slots and view dtype of the *width*
    lanes starting at *ref*.

    Raises ``ValueError`` when the operand runs past the last register.
    """
    start_slot = ref.reg * SLOTS_PER_REG
    slots = width * ref.dtype.size // 4
    if slots == 0:  # sub-32-bit widths never occur; guard anyway
        slots = 1
    end_slot = start_slot + slots
    if end_slot > NUM_SLOTS:
        raise ValueError(
            f"operand {ref} at SIMD{width} overflows the GRF "
            f"(slots {start_slot}..{end_slot - 1})"
        )
    return start_slot, end_slot, ref.dtype.np_dtype


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
