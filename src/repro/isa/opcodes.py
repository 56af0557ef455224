"""Opcodes of the modelled EU ISA and their static properties.

Each opcode carries the execution pipe it dispatches to (paper Section
2.2: FPU for common int/float ops, EM for extended math, a separate SEND
pipe for memory/barrier messages, and a control pipe for the structured
branch instructions handled at the front end) and its result latency in
cycles, used by the scoreboard timing model.

Latencies are representative of the studied architecture class, not
calibrated to any specific product: the paper's results depend on issue
bandwidth, execution-cycle counts, and memory behaviour — not on exact
ALU latencies.
"""

from __future__ import annotations

import enum


class Pipe(enum.Enum):
    """Execution pipe an opcode dispatches to."""

    FPU = "fpu"
    EM = "em"
    SEND = "send"
    CTRL = "ctrl"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Opcode(enum.Enum):
    """All instruction opcodes, with (pipe, result latency, #sources)."""

    # -- FPU pipe: common integer and floating-point operations ----------
    MOV = ("mov", Pipe.FPU, 4, 1)
    ADD = ("add", Pipe.FPU, 4, 2)
    SUB = ("sub", Pipe.FPU, 4, 2)
    MUL = ("mul", Pipe.FPU, 5, 2)
    MAD = ("mad", Pipe.FPU, 5, 3)  # dst = src0 * src1 + src2 (FMA)
    MIN = ("min", Pipe.FPU, 4, 2)
    MAX = ("max", Pipe.FPU, 4, 2)
    ABS = ("abs", Pipe.FPU, 4, 1)
    FLOOR = ("floor", Pipe.FPU, 4, 1)
    AND = ("and", Pipe.FPU, 4, 2)
    OR = ("or", Pipe.FPU, 4, 2)
    XOR = ("xor", Pipe.FPU, 4, 2)
    NOT = ("not", Pipe.FPU, 4, 1)
    SHL = ("shl", Pipe.FPU, 4, 2)
    SHR = ("shr", Pipe.FPU, 4, 2)
    CMP = ("cmp", Pipe.FPU, 2, 2)  # writes a flag register
    SEL = ("sel", Pipe.FPU, 4, 2)  # dst = flag ? src0 : src1
    CVT = ("cvt", Pipe.FPU, 4, 1)  # convert between dtypes (src dtype in src_dtype)

    # -- EM pipe: extended math -------------------------------------------
    DIV = ("div", Pipe.EM, 12, 2)
    SQRT = ("sqrt", Pipe.EM, 12, 1)
    RSQRT = ("rsqrt", Pipe.EM, 12, 1)
    SIN = ("sin", Pipe.EM, 14, 1)
    COS = ("cos", Pipe.EM, 14, 1)
    EXP = ("exp", Pipe.EM, 14, 1)
    LOG = ("log", Pipe.EM, 14, 1)
    POW = ("pow", Pipe.EM, 16, 2)

    # -- SEND pipe: memory and synchronization messages -------------------
    LOAD = ("load", Pipe.SEND, 0, 1)  # gather: dst[i] = surface[addr[i]]
    STORE = ("store", Pipe.SEND, 0, 2)  # scatter: surface[addr[i]] = src[i]
    LOAD_SLM = ("load_slm", Pipe.SEND, 0, 1)
    STORE_SLM = ("store_slm", Pipe.SEND, 0, 2)
    BARRIER = ("barrier", Pipe.SEND, 0, 0)

    # -- CTRL: structured control flow and thread termination -------------
    IF = ("if", Pipe.CTRL, 0, 0)
    ELSE = ("else", Pipe.CTRL, 0, 0)
    ENDIF = ("endif", Pipe.CTRL, 0, 0)
    DO = ("do", Pipe.CTRL, 0, 0)
    WHILE = ("while", Pipe.CTRL, 0, 0)
    BREAK = ("break", Pipe.CTRL, 0, 0)
    EOT = ("eot", Pipe.CTRL, 0, 0)  # end of thread

    def __init__(self, mnemonic: str, pipe: Pipe, latency: int, num_sources: int) -> None:
        self.mnemonic = mnemonic
        self.pipe = pipe
        self.latency = latency
        self.num_sources = num_sources

    @property
    def is_memory(self) -> bool:
        """True for load/store message opcodes (not barriers)."""
        return self in (Opcode.LOAD, Opcode.STORE, Opcode.LOAD_SLM, Opcode.STORE_SLM)

    @property
    def is_slm(self) -> bool:
        """True when the access targets shared local memory."""
        return self in (Opcode.LOAD_SLM, Opcode.STORE_SLM)

    @property
    def is_store(self) -> bool:
        return self in (Opcode.STORE, Opcode.STORE_SLM)

    @property
    def writes_dst(self) -> bool:
        """True when the instruction produces a register result."""
        if self.pipe is Pipe.CTRL or self is Opcode.BARRIER or self is Opcode.CMP:
            return False
        return not self.is_store

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


#: Opcodes that consume ALU execution cycles (and therefore benefit from
#: BCC/SCC cycle compression).
ALU_OPCODES = tuple(op for op in Opcode if op.pipe in (Pipe.FPU, Pipe.EM))
