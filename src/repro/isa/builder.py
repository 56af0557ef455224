"""KernelBuilder: a small assembler DSL for writing EU kernels in Python.

The builder plays the role of the OpenCL compiler in the paper's flow: it
produces finalized :class:`~repro.isa.program.Program` objects that the
simulator dispatches.  It manages GRF allocation (including the implicit
multi-register spans of wide-SIMD operands), kernel argument binding, and
structured control flow::

    b = KernelBuilder("axpy", simd_width=16)
    gid = b.global_id()
    x_surf = b.surface_arg("x")
    y_surf = b.surface_arg("y")
    a = b.scalar_arg("a", DType.F32)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)                       # byte offsets
    x = b.vreg(DType.F32)
    b.load(x, addr, x_surf)
    y = b.vreg(DType.F32)
    b.load(y, addr, y_surf)
    b.mad(y, x, a, y)                         # y = a*x + y
    b.store(y, addr, y_surf)
    program = b.finish()

Control flow uses flags and context managers::

    f = b.cmp(CmpOp.LT, x, 0.0)
    with b.if_(f):
        ...                                   # then block
        b.else_()
        ...                                   # optional else block

    b.do_()
    ...
    f = b.cmp(CmpOp.GT, counter, 0)
    b.while_(f)
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Union

from ..errors import BuildError
from .instruction import Instruction
from .opcodes import Opcode
from .program import KernelParam, ParamKind, Program
from .registers import NUM_FLAGS, NUM_GRF_REGS, FlagRef, Imm, Operand, RegRef, as_operand
from .types import CmpOp, DType

#: Anything a convenience method accepts as a source.
SourceLike = Union[RegRef, Imm, int, float]

#: Opcodes whose operands must be integer-typed (bitwise/shift family);
#: numpy raises at simulation time if these ever see float lanes, so the
#: builder rejects the misuse at construction time instead.
_INTEGER_ONLY_OPCODES = frozenset(
    (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR)
)


class KernelBuilder:
    """Incremental assembler for one kernel program.

    Misuse (dtype, surface, flag, or control-flow errors) raises a typed
    :class:`~repro.errors.BuildError` carrying the kernel name and — for
    failures attributable to one instruction — its index in the program.
    """

    def __init__(self, name: str, simd_width: int, slm_bytes: int = 0) -> None:
        if simd_width not in (1, 4, 8, 16, 32):
            raise BuildError(f"unsupported SIMD width {simd_width}",
                             kernel=name)
        self.name = name
        self.simd_width = simd_width
        self.slm_bytes = slm_bytes
        self._instructions: List[Instruction] = []
        self._params: List[KernelParam] = []
        self._next_reg = 0
        self._next_surface = 0
        self._gid: Optional[RegRef] = None
        self._lid: Optional[RegRef] = None
        self._finished = False
        # Released temp spans by size, reusable by .temp() — the DSL
        # lowering churns through short-lived expression temporaries and
        # would exhaust the GRF without reuse.
        self._free_spans: Dict[int, List[int]] = {}

    def _error(self, message: str, at_instruction: Optional[int] = None) -> BuildError:
        return BuildError(message, kernel=self.name,
                          instruction_index=at_instruction)

    # -- register and argument allocation ---------------------------------

    def _alloc(self, dtype: DType, width: Optional[int] = None) -> RegRef:
        width = width if width is not None else self.simd_width
        span = dtype.regs_for_width(width)
        if self._next_reg + span > NUM_GRF_REGS:
            raise self._error(
                f"exhausted the GRF "
                f"({self._next_reg + span} > {NUM_GRF_REGS} registers)"
            )
        ref = RegRef(self._next_reg, dtype)
        self._next_reg += span
        return ref

    def temp(self, dtype: DType = DType.F32) -> RegRef:
        """Allocate a scratch register, reusing a released span if one fits."""
        span = dtype.regs_for_width(self.simd_width)
        free = self._free_spans.get(span)
        if free:
            return RegRef(free.pop(), dtype)
        return self._alloc(dtype)

    def release(self, ref: RegRef) -> None:
        """Return a :meth:`temp` register span to the free pool."""
        span = ref.dtype.regs_for_width(self.simd_width)
        self._free_spans.setdefault(span, []).append(ref.reg)

    def vreg(self, dtype: DType = DType.F32) -> RegRef:
        """Allocate a fresh SIMD-width virtual register."""
        return self._alloc(dtype)

    def global_id(self) -> RegRef:
        """Per-lane global work-item id (dispatch payload, I32)."""
        if self._gid is None:
            self._gid = self._alloc(DType.I32)
        return self._gid

    def local_id(self) -> RegRef:
        """Per-lane local (within-workgroup) work-item id (I32)."""
        if self._lid is None:
            self._lid = self._alloc(DType.I32)
        return self._lid

    def scalar_arg(self, name: str, dtype: DType = DType.F32) -> RegRef:
        """Declare a scalar kernel argument, broadcast across all lanes."""
        self._check_param_name(name)
        ref = self._alloc(dtype)
        kind = ParamKind.SCALAR_F32 if dtype.is_float else ParamKind.SCALAR_I32
        self._params.append(KernelParam(name=name, kind=kind, reg=ref.reg))
        return ref

    def surface_arg(self, name: str) -> int:
        """Declare a buffer argument; returns its binding-table index."""
        self._check_param_name(name)
        index = self._next_surface
        self._next_surface += 1
        self._params.append(
            KernelParam(name=name, kind=ParamKind.SURFACE, surface_index=index)
        )
        return index

    def _check_param_name(self, name: str) -> None:
        if any(p.name == name for p in self._params):
            raise self._error(f"duplicate kernel parameter {name!r}")

    # -- instruction emission ----------------------------------------------

    def emit(self, inst: Instruction) -> Instruction:
        """Append a raw instruction (escape hatch for tests/tools).

        Validates structural well-formedness eagerly so a misused opcode
        fails at the call site, with the instruction index, instead of
        surfacing later as a bare ``ValueError`` from finalization.
        """
        if self._finished:
            raise self._error("cannot emit into a finished kernel")
        index = len(self._instructions)
        try:
            inst.validate()
        except ValueError as exc:
            raise self._error(str(exc), at_instruction=index) from exc
        if inst.opcode in _INTEGER_ONLY_OPCODES and inst.dtype.is_float:
            raise self._error(
                f"{inst.opcode.mnemonic} requires an integer dtype, "
                f"got {inst.dtype.label}", at_instruction=index)
        if inst.opcode in (Opcode.LOAD, Opcode.STORE) and not (
                0 <= inst.surface < self._next_surface):
            raise self._error(
                f"surface {inst.surface} is not a declared buffer argument "
                f"({self._next_surface} declared)", at_instruction=index)
        for flag in (inst.pred, inst.flag_dst):
            if flag is not None and not 0 <= flag.index < NUM_FLAGS:
                raise self._error(
                    f"flag f{flag.index} out of range (have {NUM_FLAGS})",
                    at_instruction=index)
        self._instructions.append(inst)
        return inst

    def alu(
        self,
        opcode: Opcode,
        dst: RegRef,
        *sources: SourceLike,
        pred: Optional[FlagRef] = None,
        width: Optional[int] = None,
    ) -> RegRef:
        """Emit a generic ALU instruction; dtype comes from *dst*."""
        dtype = dst.dtype
        inst = Instruction(
            opcode=opcode,
            width=width if width is not None else self.simd_width,
            dtype=dtype,
            dst=dst,
            sources=tuple(as_operand(s, dtype) for s in sources),
            pred=pred,
        )
        self.emit(inst)
        return dst

    # Convenience wrappers for the common opcodes.  Each returns dst so
    # kernels can chain expressions.

    def mov(self, dst: RegRef, src: SourceLike, pred: Optional[FlagRef] = None) -> RegRef:
        return self.alu(Opcode.MOV, dst, src, pred=pred)

    def add(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.ADD, dst, a, b, pred=pred)

    def sub(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.SUB, dst, a, b, pred=pred)

    def mul(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.MUL, dst, a, b, pred=pred)

    def mad(self, dst: RegRef, a: SourceLike, b: SourceLike, c: SourceLike, pred=None) -> RegRef:
        """dst = a * b + c (fused multiply-add)."""
        return self.alu(Opcode.MAD, dst, a, b, c, pred=pred)

    def min_(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.MIN, dst, a, b, pred=pred)

    def max_(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.MAX, dst, a, b, pred=pred)

    def abs_(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.ABS, dst, a, pred=pred)

    def floor(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.FLOOR, dst, a, pred=pred)

    def and_(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.AND, dst, a, b, pred=pred)

    def or_(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.OR, dst, a, b, pred=pred)

    def xor(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.XOR, dst, a, b, pred=pred)

    def not_(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.NOT, dst, a, pred=pred)

    def shl(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.SHL, dst, a, b, pred=pred)

    def shr(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.SHR, dst, a, b, pred=pred)

    def div(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.DIV, dst, a, b, pred=pred)

    def sqrt(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.SQRT, dst, a, pred=pred)

    def rsqrt(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.RSQRT, dst, a, pred=pred)

    def sin(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.SIN, dst, a, pred=pred)

    def cos(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.COS, dst, a, pred=pred)

    def exp(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.EXP, dst, a, pred=pred)

    def log(self, dst: RegRef, a: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.LOG, dst, a, pred=pred)

    def pow_(self, dst: RegRef, a: SourceLike, b: SourceLike, pred=None) -> RegRef:
        return self.alu(Opcode.POW, dst, a, b, pred=pred)

    def cvt(self, dst: RegRef, src: RegRef, pred: Optional[FlagRef] = None) -> RegRef:
        """Convert *src* (its own dtype) into *dst*'s dtype."""
        inst = Instruction(
            opcode=Opcode.CVT,
            width=self.simd_width,
            dtype=dst.dtype,
            dst=dst,
            sources=(src,),
            src_dtype=src.dtype,
            pred=pred,
        )
        self.emit(inst)
        return dst

    def cmp(
        self,
        op: CmpOp,
        a: SourceLike,
        b: SourceLike,
        flag: Optional[FlagRef] = None,
        dtype: Optional[DType] = None,
        pred: Optional[FlagRef] = None,
    ) -> FlagRef:
        """Compare *a* and *b*, writing flag f0 (or *flag*); returns it."""
        flag = flag if flag is not None else FlagRef(0)
        if dtype is None:
            dtype = a.dtype if isinstance(a, (RegRef, Imm)) else DType.F32
        inst = Instruction(
            opcode=Opcode.CMP,
            width=self.simd_width,
            dtype=dtype,
            sources=(as_operand(a, dtype), as_operand(b, dtype)),
            flag_dst=flag,
            cmp_op=op,
            pred=pred,
        )
        self.emit(inst)
        return flag

    def sel(self, dst: RegRef, flag: FlagRef, a: SourceLike, b: SourceLike) -> RegRef:
        """dst = flag ? a : b, per lane."""
        dtype = dst.dtype
        inst = Instruction(
            opcode=Opcode.SEL,
            width=self.simd_width,
            dtype=dtype,
            dst=dst,
            sources=(as_operand(a, dtype), as_operand(b, dtype)),
            pred=flag,
        )
        self.emit(inst)
        return dst

    # -- memory -------------------------------------------------------------

    def load(self, dst: RegRef, addr: RegRef, surface: int, pred=None) -> RegRef:
        """Gather *dst* lanes from per-lane byte offsets in *addr*."""
        inst = Instruction(
            opcode=Opcode.LOAD,
            width=self.simd_width,
            dtype=dst.dtype,
            dst=dst,
            sources=(addr,),
            surface=surface,
            pred=pred,
        )
        self.emit(inst)
        return dst

    def store(self, src: RegRef, addr: RegRef, surface: int, pred=None) -> None:
        """Scatter *src* lanes to per-lane byte offsets in *addr*."""
        inst = Instruction(
            opcode=Opcode.STORE,
            width=self.simd_width,
            dtype=src.dtype,
            sources=(addr, src),
            surface=surface,
            pred=pred,
        )
        self.emit(inst)

    def load_slm(self, dst: RegRef, addr: RegRef, pred=None) -> RegRef:
        """Gather from shared local memory (per-lane byte offsets)."""
        inst = Instruction(
            opcode=Opcode.LOAD_SLM,
            width=self.simd_width,
            dtype=dst.dtype,
            dst=dst,
            sources=(addr,),
            pred=pred,
        )
        self.emit(inst)
        return dst

    def store_slm(self, src: RegRef, addr: RegRef, pred=None) -> None:
        """Scatter to shared local memory (per-lane byte offsets)."""
        inst = Instruction(
            opcode=Opcode.STORE_SLM,
            width=self.simd_width,
            dtype=src.dtype,
            sources=(addr, src),
            pred=pred,
        )
        self.emit(inst)

    def barrier(self) -> None:
        """Workgroup barrier."""
        self.emit(Instruction(opcode=Opcode.BARRIER, width=self.simd_width))

    # -- control flow --------------------------------------------------------

    def IF(self, flag: FlagRef) -> None:
        self.emit(Instruction(opcode=Opcode.IF, width=self.simd_width, pred=flag))

    def ELSE(self) -> None:
        self.emit(Instruction(opcode=Opcode.ELSE, width=self.simd_width))

    def ENDIF(self) -> None:
        self.emit(Instruction(opcode=Opcode.ENDIF, width=self.simd_width))

    @contextlib.contextmanager
    def if_(self, flag: FlagRef) -> Iterator[None]:
        """Structured IF block; call :meth:`else_` inside for an else arm."""
        self.IF(flag)
        yield
        self.ENDIF()

    def else_(self) -> None:
        """Switch to the else arm inside a ``with b.if_(...)`` block."""
        self.ELSE()

    def do_(self) -> None:
        """Open a loop (matches a later :meth:`while_`)."""
        self.emit(Instruction(opcode=Opcode.DO, width=self.simd_width))

    def while_(self, flag: FlagRef) -> None:
        """Close a loop: lanes with *flag* set iterate again."""
        self.emit(Instruction(opcode=Opcode.WHILE, width=self.simd_width, pred=flag))

    def break_(self, flag: FlagRef) -> None:
        """Lanes with *flag* set exit the innermost loop."""
        self.emit(Instruction(opcode=Opcode.BREAK, width=self.simd_width, pred=flag))

    # -- finalization ----------------------------------------------------------

    def finish(self) -> Program:
        """Append EOT, finalize control flow, and return the Program.

        Control-flow imbalance (an IF without ENDIF, a stray WHILE)
        surfaces here as a :class:`~repro.errors.BuildError`.
        """
        if self._finished:
            raise self._error("already finished")
        self.emit(Instruction(opcode=Opcode.EOT, width=self.simd_width))
        self._finished = True
        program = Program(
            name=self.name,
            simd_width=self.simd_width,
            instructions=self._instructions,
            params=self._params,
            slm_bytes=self.slm_bytes,
        )
        program.gid_reg = self._gid.reg if self._gid is not None else None
        program.lid_reg = self._lid.reg if self._lid is not None else None
        try:
            return program.finalize()
        except BuildError:
            raise
        except ValueError as exc:
            raise self._error(str(exc)) from exc
