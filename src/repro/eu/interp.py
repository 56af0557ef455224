"""Functional interpreter for EU instructions.

The simulator follows the paper's GPGenSim structure: a functional model
computes architectural state (registers, flags, memory) while the timing
model charges cycles.  This module is the functional half for ALU and
memory instructions; control flow lives in :mod:`repro.eu.maskstack`.
Both functional models read an instruction's operands from its cached
execution plan (:func:`alu_plan`, :func:`mem_plan`): the interp engine
runs it on one thread's GRF (:func:`run_alu`, :func:`run_slm`), the
batched engine on a ``(threads, slots)`` block.

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
from .grf import RegisterFile, _mask_bools, masked_write, operand_plan


def _shift_amounts(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Clamp shift amounts to the type's bit width (hardware behaviour).

    The clamp ceiling follows the *operand* type: 31 for 32-bit types,
    63 for 64-bit ones.  A single [0, 31] clamp would silently truncate
    I64 shifts by 32..63 to a 31-bit shift.  (Typed bounds: ``np.clip``
    with Python-int bounds builds dtype-limit objects on every call.)
    """
    return np.minimum(np.maximum(values.astype(np.int64), _NO_SHIFT),
                      _MAX_SHIFT[dtype.size])


_NO_SHIFT = np.int64(0)
_MAX_SHIFT = {4: np.int64(31), 8: np.int64(63)}


def execute_alu(
    inst: Instruction,
    exec_mask: int,
    grf: RegisterFile,
    flags: List[int],
    selector_mask: int = 0,
) -> None:
    """Execute one FPU/EM instruction functionally.

    Runs the instruction's cached plan (:func:`alu_plan`) under its own
    ``np.errstate``; the EU's scan calls :func:`run_alu` directly inside
    the one ``errstate`` the simulator enters per run.

    Args:
        inst: the instruction (must be an ALU opcode).
        exec_mask: final execution mask (lanes to write).
        grf: the thread's register file.
        flags: the thread's flag registers (mutable list of bitmasks).
        selector_mask: for SEL, the per-lane selector (flag value).
    """
    with np.errstate(all="ignore"):
        run_alu(alu_plan(inst), exec_mask, grf._storage, flags, selector_mask)


#: ALU plan kinds.
_FORMULA, _CMP, _SEL = range(3)


def alu_plan(inst: Instruction) -> tuple:
    """Execution plan of an ALU instruction, cached on it.

    ``(kind, sources, fn, dtype, dst, width)``, the operand work that
    does not change between issues, resolved once:

    * ``sources``: per source, the GRF operand as ``(lo, hi, view,
      convert)`` -- storage slot bounds, view dtype, and the dtype to
      convert to (None when the operand already has it) -- or, for an
      immediate, one read-only pre-broadcast array.
    * ``fn``: the opcode's formula ``fn(srcs, dtype)``, the one
      definition of every ALU op but CMP and SEL; for CMP the
      comparison.
    * ``dst``: the destination's ``(lo, hi, view)``; for CMP the flag
      register index.

    Instructions are immutable after program finalization and a plan
    depends on nothing else, so both functional models run from it:
    the interp engine on one thread's slots (:func:`run_alu`), the
    batched engine on a ``(threads, slots)`` block, across whose rows
    an immediate broadcasts.  Operand errors (``TypeError``, GRF
    overflow ``ValueError``, ``NotImplementedError``) surface here, on
    the first execution, in the order the operands are read.
    """
    plan = inst.__dict__.get("_alu_plan")
    if plan is not None:
        return plan
    op = inst.opcode
    width = inst.width
    dtype = inst.dtype
    # CVT reads its source in the source type; every other op reads its
    # sources in the instruction's type.
    read_dtype = inst.src_dtype if op is Opcode.CVT else dtype
    sources = tuple(_source_plan(src, width, read_dtype)
                    for src in inst.sources)
    if op is Opcode.CMP:
        kind, fn, dst = _CMP, inst.cmp_op.apply, inst.flag_dst.index
    elif op is Opcode.SEL:
        kind, fn, dst = _SEL, None, operand_plan(inst.dst, width)
    else:
        kind, fn, dst = _FORMULA, _formula(op), operand_plan(inst.dst, width)
    plan = inst.__dict__["_alu_plan"] = (kind, sources, fn, dtype, dst, width)
    return plan


def _source_plan(op, width: int, dtype: DType):
    """One source of :func:`alu_plan`, read as *dtype*: a register is
    converted, an immediate broadcast."""
    if isinstance(op, RegRef):
        convert = None if op.dtype is dtype else dtype.np_dtype
        return operand_plan(op, width) + (convert,)
    if isinstance(op, Imm):
        values = np.full(width, op.value, dtype=dtype.np_dtype)
        values.flags.writeable = False
        return values
    raise TypeError(f"cannot evaluate operand {op!r}")


def run_alu(plan: tuple, exec_mask: int, storage: np.ndarray,
            flags: List[int], selector_mask: int) -> None:
    """Execute an :func:`alu_plan` on one thread's GRF *storage*.

    The caller suppresses numpy's floating-point warnings.  Sources are
    read as views where no conversion is needed: formulas never write
    their inputs, and the masked write buffers an overlapping source.
    """
    if not exec_mask:
        return  # no lane writes a register or a flag bit
    kind, sources, fn, dtype, dst, width = plan
    srcs = []
    for src in sources:
        if src.__class__ is tuple:
            lo, hi, view, convert = src
            src = storage[lo:hi].view(view)
            if convert is not None:
                src = src.astype(convert)
        srcs.append(src)
    if kind == _CMP:
        bits = int.from_bytes(np.packbits(
            fn(srcs[0], srcs[1]), bitorder="little").tobytes(), "little")
        # CMP updates flag bits only for enabled lanes.
        flags[dst] = (flags[dst] & ~exec_mask) | (bits & exec_mask)
        return
    if kind == _SEL:
        result = np.where(_mask_bools(selector_mask, width), srcs[0], srcs[1])
    else:
        result = np.asarray(fn(srcs, dtype), dtype=dtype.np_dtype)
    lo, hi, view = dst
    masked_write(storage[lo:hi].view(view), result, exec_mask, width)


def _formula(op: Opcode):
    formula = _ALU_FORMULAS.get(op)
    if formula is None:
        raise NotImplementedError(f"functional model missing for {op}")
    return formula


def _shl(a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    # Left shifts run in the uint64 domain, where wrap-around is well
    # defined; a 64-bit value shifted in int64 would overflow for
    # amounts the [0, 63] clamp admits.
    return (a.astype(np.int64).astype(np.uint64)
            << _shift_amounts(b, dtype).astype(np.uint64)
            ).astype(dtype.np_dtype)


#: Opcode -> ``formula(srcs, dtype)``: *srcs* are one thread's lanes or a
#: ``(threads, lanes)`` block, CVT's source read in its source type and
#: every other source in *dtype*.
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


def mem_plan(inst: Instruction) -> tuple:
    """Execution plan of a memory message, cached on it.

    ``(address, data, dst, dtype, surface, width)``: the address, store
    data and load destination operands as ``(lo, hi, view)`` GRF slot
    bounds and view dtype (None where the message has no such operand),
    the element type and the global surface index.  Built on the first
    execution by either functional model, which raises any GRF overflow.
    """
    plan = inst.__dict__.get("_mem_plan")
    if plan is not None:
        return plan
    width = inst.width
    sources = [operand_plan(src, width) for src in inst.sources]
    data = sources[1] if len(sources) > 1 else None
    dst = operand_plan(inst.dst, width) if data is None else None
    plan = inst.__dict__["_mem_plan"] = (
        sources[0], data, dst, inst.dtype, inst.surface, width)
    return plan


def _offsets(storage: np.ndarray, plan: tuple) -> np.ndarray:
    """The address operand's lanes, copied: a load may overwrite the
    address registers before the cache lines are taken from them."""
    lo, hi, view = plan[0]
    return storage[lo:hi].view(view).copy()


def _transfer(storage: np.ndarray, plan: tuple, buffer: np.ndarray,
              offsets: np.ndarray, exec_mask: int) -> None:
    """Gather *buffer* into the load destination, or scatter the store
    data into it."""
    _, data, dst, dtype, _, width = plan
    if data is None:
        lo, hi, view = dst
        masked_write(storage[lo:hi].view(view),
                     gather(buffer, offsets, exec_mask, dtype),
                     exec_mask, width)
    else:
        lo, hi, view = data
        scatter(buffer, offsets, storage[lo:hi].view(view), exec_mask, dtype)


def run_slm(storage: np.ndarray, plan: tuple, slm, timing, exec_mask: int,
            kernel: str) -> int:
    """Execute a :func:`mem_plan` SLM message on one thread's GRF
    *storage*; return its bank-conflict cycles.

    *slm* and *timing* are the workgroup's allocation (None when the
    launch allocated none, which raises) and bank model.
    """
    if slm is None:
        raise RuntimeError(
            f"kernel {kernel!r} uses SLM but none was allocated"
        )
    offsets = _offsets(storage, plan)
    cycles = timing.access_cycles(offsets, exec_mask)
    _transfer(storage, plan, slm.data, offsets, exec_mask)
    return cycles


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
