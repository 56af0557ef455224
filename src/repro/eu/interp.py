"""Functional interpreter for EU instructions.

The simulator follows the paper's GPGenSim structure: a functional model
computes architectural state (registers, flags, memory) while the timing
model charges cycles.  This module is the functional half for ALU and
memory instructions; control flow lives in :mod:`repro.eu.maskstack`.

All arithmetic uses numpy with the instruction's data type, so lane
values behave like the 32/64-bit hardware types (int wrap-around, IEEE
floats).  Divide-by-zero and overflow produce IEEE results (inf/nan)
without raising, as the hardware does.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.registers import Imm, RegRef
from ..isa.types import DType
from .grf import RegisterFile, _mask_bools


def eval_operand(op, width: int, grf: RegisterFile, dtype: DType) -> np.ndarray:
    """Materialize a source operand as a *width*-lane array of *dtype*.

    Register operands are read with their own dtype then converted;
    immediates are broadcast.
    """
    if isinstance(op, RegRef):
        values = grf.read(op, width)
        if op.dtype is not dtype:
            values = values.astype(dtype.np_dtype)
        return values
    if isinstance(op, Imm):
        return np.full(width, op.value, dtype=dtype.np_dtype)
    raise TypeError(f"cannot evaluate operand {op!r}")


def _shift_amounts(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Clamp shift amounts to the type's bit width (hardware behaviour).

    The clamp ceiling follows the *operand* type: 31 for 32-bit types,
    63 for 64-bit ones.  A single [0, 31] clamp would silently truncate
    I64 shifts by 32..63 to a 31-bit shift.
    """
    return np.clip(values.astype(np.int64), 0, dtype.size * 8 - 1)


def execute_alu(
    inst: Instruction,
    exec_mask: int,
    grf: RegisterFile,
    flags: List[int],
    selector_mask: int = 0,
) -> None:
    """Execute one FPU/EM instruction functionally.

    Args:
        inst: the instruction (must be an ALU opcode).
        exec_mask: final execution mask (lanes to write).
        grf: the thread's register file.
        flags: the thread's flag registers (mutable list of bitmasks).
        selector_mask: for SEL, the per-lane selector (flag value).
    """
    width = inst.width
    op = inst.opcode
    dtype = inst.dtype

    if op is Opcode.CMP:
        with np.errstate(all="ignore"):
            a = eval_operand(inst.sources[0], width, grf, dtype)
            b = eval_operand(inst.sources[1], width, grf, dtype)
            result = inst.cmp_op.apply(a, b)
        taken = np.asarray(result, dtype=bool) & _mask_bools(exec_mask, width)
        bits = int.from_bytes(
            np.packbits(taken, bitorder="little").tobytes(), "little")
        idx = inst.flag_dst.index
        # CMP updates flag bits only for enabled lanes.
        flags[idx] = (flags[idx] & ~exec_mask) | bits
        return

    if op is Opcode.SEL:
        a = eval_operand(inst.sources[0], width, grf, dtype)
        b = eval_operand(inst.sources[1], width, grf, dtype)
        sel = _mask_bools(selector_mask, width)
        result = np.where(sel, a, b)
        grf.write(inst.dst, width, result, exec_mask)
        return

    # CVT reads its source in the source type; every other op reads its
    # sources in the instruction's type.
    read_dtype = inst.src_dtype if op is Opcode.CVT else dtype
    with np.errstate(all="ignore"):
        srcs = [eval_operand(s, width, grf, read_dtype) for s in inst.sources]
        result = alu_value(op, srcs, dtype)
    grf.write(inst.dst, width, result, exec_mask)


def alu_value(op: Opcode, srcs: List[np.ndarray], dtype: DType) -> np.ndarray:
    """Value of every ALU op except CMP and SEL, as a *dtype* array.

    The one definition of the ALU formulas for both engines: *srcs* may
    be one thread's lanes (interp) or a ``(threads, lanes)`` block
    (the batched engine).  The caller reads CVT's source in its source
    type and every other source in *dtype*, and suppresses numpy's
    floating-point warnings (IEEE results, as the hardware gives).
    """
    formula = _ALU_FORMULAS.get(op)
    if formula is None:
        raise NotImplementedError(f"functional model missing for {op}")
    return np.asarray(formula(srcs, dtype), dtype=dtype.np_dtype)


def _shl(a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    # Left shifts run in the uint64 domain, where wrap-around is well
    # defined; a 64-bit value shifted in int64 would overflow for
    # amounts the [0, 63] clamp admits.
    return (a.astype(np.int64).astype(np.uint64)
            << _shift_amounts(b, dtype).astype(np.uint64)
            ).astype(dtype.np_dtype)


#: Opcode -> ``formula(srcs, dtype)`` for :func:`alu_value`.
_ALU_FORMULAS = {
    Opcode.MOV: lambda s, dt: s[0],
    Opcode.CVT: lambda s, dt: s[0].astype(dt.np_dtype),
    Opcode.ADD: lambda s, dt: s[0] + s[1],
    Opcode.SUB: lambda s, dt: s[0] - s[1],
    Opcode.MUL: lambda s, dt: s[0] * s[1],
    Opcode.MAD: lambda s, dt: s[0] * s[1] + s[2],
    Opcode.MIN: lambda s, dt: np.minimum(s[0], s[1]),
    Opcode.MAX: lambda s, dt: np.maximum(s[0], s[1]),
    Opcode.ABS: lambda s, dt: np.abs(s[0]),
    Opcode.FLOOR: lambda s, dt: np.floor(s[0]) if dt.is_float else s[0],
    Opcode.AND: lambda s, dt: s[0] & s[1],
    Opcode.OR: lambda s, dt: s[0] | s[1],
    Opcode.XOR: lambda s, dt: s[0] ^ s[1],
    Opcode.NOT: lambda s, dt: ~s[0],
    Opcode.SHL: lambda s, dt: _shl(s[0], s[1], dt),
    Opcode.SHR: lambda s, dt: (s[0].astype(np.int64)
                               >> _shift_amounts(s[1], dt)).astype(dt.np_dtype),
    Opcode.DIV: lambda s, dt: (s[0] / s[1] if dt.is_float
                               else _int_div(s[0], s[1])),
    Opcode.SQRT: lambda s, dt: np.sqrt(s[0]),
    Opcode.RSQRT: lambda s, dt: 1.0 / np.sqrt(s[0]),
    Opcode.SIN: lambda s, dt: np.sin(s[0]),
    Opcode.COS: lambda s, dt: np.cos(s[0]),
    Opcode.EXP: lambda s, dt: np.exp(s[0]),
    Opcode.LOG: lambda s, dt: np.log(s[0]),
    Opcode.POW: lambda s, dt: np.power(s[0], s[1]),
}


def _int_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer division with divide-by-zero yielding 0 (hardware-defined)."""
    safe = np.where(b == 0, 1, b)
    q = a // safe
    return np.where(b == 0, 0, q).astype(a.dtype)


def gather(surface: np.ndarray, offsets: np.ndarray, exec_mask: int, dtype: DType) -> np.ndarray:
    """Per-lane gather: lane *i* reads ``dtype.size`` bytes at offsets[i].

    Disabled lanes return 0.  Offsets must be dtype-aligned and in range;
    out-of-range enabled lanes raise ``IndexError`` (the simulator's
    equivalent of a page fault — kernels are expected to guard).
    """
    width = offsets.shape[0]
    view = surface.view(dtype.np_dtype)
    enabled = _mask_bools(exec_mask, width)
    idx, _ = _checked_indices(surface, offsets, enabled, dtype, "reads")
    if exec_mask == (1 << width) - 1:
        return view[idx]
    out = np.zeros(width, dtype=dtype.np_dtype)
    out[enabled] = view[idx[enabled]]
    return out


def _checked_indices(surface: np.ndarray, offsets: np.ndarray,
                     enabled: np.ndarray, dtype: DType, verb: str):
    """Validate byte offsets; return (element indices, uint64 offsets).

    *offsets* and the boolean *enabled* share a shape: one thread's
    lanes, or a ``(threads, lanes)`` block.  The first offending
    *enabled* lane in row-major (thread, lane) order raises, with
    misalignment checked before range for that lane.
    """
    size = dtype.size
    count = surface.nbytes // size
    # Unsigned arithmetic folds the range check into one comparison:
    # negative offsets wrap to huge values and fail ``idx >= count``.
    # dtype sizes are powers of two dividing 2**64, so alignment
    # remainders are unchanged by the wrap.
    unsigned = offsets.astype(np.uint64, copy=False)
    idx, rem = np.divmod(unsigned, np.uint64(size))
    bad = rem != 0
    bad |= idx >= count
    bad &= enabled
    if bad.any():
        first = int(np.argmax(bad))
        lane = first % offsets.shape[-1]
        off = int(offsets.flat[first])
        if off % size != 0:
            raise ValueError(f"misaligned {dtype} access at byte offset {off}")
        raise IndexError(
            f"lane {lane} {verb} byte offset {off}, beyond surface of "
            f"{surface.size} bytes"
        )
    return idx, unsigned


def scatter(
    surface: np.ndarray, offsets: np.ndarray, values: np.ndarray, exec_mask: int, dtype: DType
) -> None:
    """Per-lane scatter: lane *i* writes ``dtype.size`` bytes at offsets[i].

    When several enabled lanes target the same offset, the highest lane
    wins (matching the sequential quad write-back order of the hardware).
    """
    view = surface.view(dtype.np_dtype)
    enabled = _mask_bools(exec_mask, offsets.shape[0])
    idx, _ = _checked_indices(surface, offsets, enabled, dtype, "writes")
    # Fancy assignment applies lanes in order, so duplicate offsets keep
    # the highest enabled lane's value — the hardware's quad write-back
    # order.
    if exec_mask == (1 << offsets.shape[0]) - 1:
        view[idx] = values
    else:
        view[idx[enabled]] = values[enabled]
