"""Instruction representation of the modelled EU ISA.

A single :class:`Instruction` dataclass covers all opcode families; the
optional fields used by each family are documented on the class.  Control
-flow targets (the matching ELSE/ENDIF/WHILE indices) are *resolved*, not
encoded: :meth:`repro.isa.program.Program.finalize` fills them in, which
mirrors how real EU binaries carry jump offsets computed by the
assembler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .opcodes import Opcode
from .registers import FlagRef, Imm, Operand, RegRef
from .types import CmpOp, DType


@dataclass
class Instruction:
    """One EU instruction.

    Attributes:
        opcode: operation to perform.
        width: SIMD execution width (1, 4, 8, 16, or 32).
        dtype: element type of destination and (by default) sources.
        dst: destination register, for opcodes that produce a result.
        sources: source operands (registers or immediates).
        pred: optional predicate; the instruction's execution mask is
            ANDed with the flag (or its negation).  Also the *condition*
            operand of IF/WHILE/BREAK/SEL.
        flag_dst: flag register written by CMP.
        cmp_op: comparison condition, for CMP.
        surface: surface (buffer) index for global LOAD/STORE; SLM
            accesses ignore it.
        src_dtype: source element type for CVT (conversion) instructions.
        target: resolved control-flow target (instruction index):
            IF -> index of matching ELSE+1 or ENDIF, ELSE -> ENDIF,
            WHILE -> matching DO+1, BREAK/DO -> index after the WHILE.
        comment: free-form annotation carried into disassembly.
    """

    opcode: Opcode
    width: int
    dtype: DType = DType.F32
    dst: Optional[RegRef] = None
    sources: Tuple[Operand, ...] = field(default_factory=tuple)
    pred: Optional[FlagRef] = None
    flag_dst: Optional[FlagRef] = None
    cmp_op: Optional[CmpOp] = None
    surface: Optional[int] = None
    src_dtype: Optional[DType] = None
    target: Optional[int] = None
    comment: str = ""

    def validate(self) -> None:
        """Check structural well-formedness (raises ``ValueError``)."""
        op = self.opcode
        if len(self.sources) != op.num_sources:
            raise ValueError(
                f"{op} expects {op.num_sources} sources, got {len(self.sources)}"
            )
        if op.writes_dst and self.dst is None:
            raise ValueError(f"{op} requires a destination register")
        if not op.writes_dst and self.dst is not None and op is not Opcode.CMP:
            raise ValueError(f"{op} must not have a destination register")
        if op is Opcode.CMP:
            if self.flag_dst is None:
                raise ValueError("CMP must write a flag register")
            if self.cmp_op is None:
                raise ValueError("CMP requires a comparison condition")
            if self.flag_dst.negate:
                raise ValueError("CMP cannot write a negated flag")
        if op in (Opcode.IF, Opcode.WHILE, Opcode.BREAK, Opcode.SEL):
            if self.pred is None:
                raise ValueError(f"{op} requires a predicate flag")
        if op is Opcode.CVT and self.src_dtype is None:
            raise ValueError("CVT requires src_dtype")
        if op in (Opcode.LOAD, Opcode.STORE) and self.surface is None:
            raise ValueError(f"{op} requires a surface index")
        if op.is_memory:
            for src in self.sources:
                if isinstance(src, Imm):
                    raise ValueError(f"{op} operands must be registers, got {src}")

    @property
    def dtype_factor(self) -> int:
        """Execution-cycle multiplier of this instruction's data type."""
        return self.dtype.dtype_factor

    def reads(self, simd_width: Optional[int] = None):
        """GRF register indices read by this instruction.

        Cached for the instruction's own width (instructions are
        immutable after program finalization; the scoreboard calls this
        on every readiness check).
        """
        if simd_width is None or simd_width == self.width:
            cached = self.__dict__.get("_reads_cache")
            if cached is None:
                cached = self._compute_reads(self.width)
                self.__dict__["_reads_cache"] = cached
            return cached
        return self._compute_reads(simd_width)

    def _compute_reads(self, width: int):
        regs = []
        for src in self.sources:
            if isinstance(src, RegRef):
                regs.extend(src.regs(width))
        return regs

    def writes(self, simd_width: Optional[int] = None):
        """GRF register indices written by this instruction (cached)."""
        if simd_width is None or simd_width == self.width:
            cached = self.__dict__.get("_writes_cache")
            if cached is None:
                cached = self._compute_writes(self.width)
                self.__dict__["_writes_cache"] = cached
            return cached
        return self._compute_writes(simd_width)

    def _compute_writes(self, width: int):
        if self.dst is None or not self.opcode.writes_dst:
            return []
        return list(self.dst.regs(width))

    def __getstate__(self) -> dict:
        """Pickle the fields only: the caches the simulator keeps in
        ``__dict__`` (``_reads_cache``, the EU's issue info and interp
        plans) are rebuilt on demand, and the plans hold functions."""
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.pred is not None:
            parts.append(f"({self.pred})")
        name = self.opcode.name
        if self.cmp_op is not None:
            name += f".{self.cmp_op}"
        parts.append(f"{name}({self.width})")
        ops = []
        if self.flag_dst is not None:
            ops.append(str(self.flag_dst))
        if self.dst is not None:
            ops.append(str(self.dst))
        ops.extend(str(s) for s in self.sources)
        if ops:
            parts.append(" " + ", ".join(ops))
        if self.surface is not None:
            parts.append(f" @surf{self.surface}")
        if self.target is not None:
            parts.append(f" ->{self.target}")
        if self.comment:
            parts.append(f"  // {self.comment}")
        return "".join(parts)
