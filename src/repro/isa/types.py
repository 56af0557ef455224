"""Data types of the modelled EU ISA.

The EU register file is typeless storage; instructions carry the data
type of their operands.  The type determines (a) the numpy view used by
the functional interpreter, (b) how many 256-bit GRF registers a
SIMD-*W* operand spans, and (c) the execution-cycle multiplier for wide
types (paper Section 4.1: 64-bit operands take twice the quad cycles).
"""

from __future__ import annotations

import enum

import numpy as np

#: Bytes per GRF register (256 bits), paper Section 2.2.
GRF_REG_BYTES = 32

#: 32-bit slots per GRF register.
SLOTS_PER_REG = GRF_REG_BYTES // 4


class DType(enum.Enum):
    """Operand data type, with element size and numpy dtype."""

    F32 = ("f32", 4, np.float32)
    I32 = ("i32", 4, np.int32)
    U32 = ("u32", 4, np.uint32)
    F64 = ("f64", 8, np.float64)
    I64 = ("i64", 8, np.int64)

    def __init__(self, label: str, size: int, np_dtype) -> None:
        self.label = label
        self.size = size
        self.np_dtype = np.dtype(np_dtype)

    @property
    def dtype_factor(self) -> int:
        """Execution-cycle multiplier: 2 for 64-bit types, else 1."""
        return 2 if self.size == 8 else 1

    @property
    def is_float(self) -> bool:
        return self in (DType.F32, DType.F64)

    def regs_for_width(self, simd_width: int) -> int:
        """GRF registers a SIMD-*simd_width* operand of this type spans.

        A SIMD16 F32 operand spans two registers (R12-R13 in the paper's
        Section 4.1 example); sub-register operands still reserve one.
        """
        if simd_width < 1:
            raise ValueError(f"simd_width must be positive, got {simd_width}")
        return max(1, (simd_width * self.size) // GRF_REG_BYTES)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


class CmpOp(enum.Enum):
    """Comparison condition for CMP instructions (writes a flag register)."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def apply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Evaluate the comparison elementwise, returning a bool array."""
        if self is CmpOp.EQ:
            return a == b
        if self is CmpOp.NE:
            return a != b
        if self is CmpOp.LT:
            return a < b
        if self is CmpOp.LE:
            return a <= b
        if self is CmpOp.GT:
            return a > b
        return a >= b

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
