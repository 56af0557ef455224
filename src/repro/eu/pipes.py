"""Execution pipes of one EU.

Paper Section 2.2, stage 6: typical 32-bit instructions execute in two
4-lane-wide ALUs — the FPU (most int/float ops including FMA) and the EM
pipe (extended math).  A SIMD-*W* instruction occupies its pipe for the
number of quad cycles the active compaction policy charges; the pipe can
accept the next instruction only once those quads have been sequenced
in.  Memory and barrier messages go to a separate SEND pipe.

Busy-until bookkeeping is sufficient because quads flow through the
(pipelined) ALU back to back: occupancy, not depth, is the issue-rate
constraint; result latency is charged separately by the scoreboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.opcodes import Opcode, Pipe


@dataclass
class ExecPipe:
    """One in-order execution pipe with single-instruction occupancy."""

    name: str
    busy_until: int = 0
    busy_cycles: int = 0  # accumulated occupancy, for utilization reports

    def can_accept(self, now: int) -> bool:
        """True when a new instruction can start sequencing at *now*."""
        return self.busy_until <= now

    def issue(self, now: int, occupancy_cycles: int) -> int:
        """Occupy the pipe for *occupancy_cycles*; returns the drain cycle."""
        if not self.can_accept(now):
            raise RuntimeError(
                f"pipe {self.name} busy until {self.busy_until}, issue at {now}"
            )
        if occupancy_cycles < 1:
            raise ValueError(f"occupancy must be >= 1 cycle, got {occupancy_cycles}")
        self.busy_until = now + occupancy_cycles
        self.busy_cycles += occupancy_cycles
        return self.busy_until


class PipeSet:
    """The FPU + EM + SEND pipes of one EU."""

    def __init__(self) -> None:
        self.fpu = ExecPipe("fpu")
        self.em = ExecPipe("em")
        self.send = ExecPipe("send")
        #: Index-addressable view (see ``repro.eu.eu._issue_info``) so hot
        #: loops can skip the enum dispatch in :meth:`for_opcode`.
        self.by_index = (self.fpu, self.em, self.send)

    def for_opcode(self, opcode: Opcode) -> ExecPipe:
        """Pipe an opcode dispatches to (CTRL ops consume no pipe)."""
        if opcode.pipe is Pipe.FPU:
            return self.fpu
        if opcode.pipe is Pipe.EM:
            return self.em
        if opcode.pipe is Pipe.SEND:
            return self.send
        raise ValueError(f"{opcode} does not use an execution pipe")

    def earliest_free(self) -> int:
        """Cycle at which at least one ALU pipe is free (for event skip)."""
        return min(self.fpu.busy_until, self.em.busy_until, self.send.busy_until)
