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

from dataclasses import dataclass


@dataclass
class ExecPipe:
    """One in-order execution pipe with single-instruction occupancy.

    The EU's scan issues to the pipe only once ``now >= busy_until``,
    then moves ``busy_until`` past the instruction's occupancy.
    """

    name: str
    busy_until: int = 0
    busy_cycles: int = 0  # accumulated occupancy, for utilization reports


class PipeSet:
    """The FPU + EM + SEND pipes of one EU."""

    def __init__(self) -> None:
        self.fpu = ExecPipe("fpu")
        self.em = ExecPipe("em")
        self.send = ExecPipe("send")
        #: Index-addressable view: ``repro.eu.eu._issue_info`` maps each
        #: instruction's opcode pipe to an index once, so the scan never
        #: dispatches on the enum.
        self.by_index = (self.fpu, self.em, self.send)
