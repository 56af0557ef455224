"""EU hardware-thread state.

Each EU supports several hardware threads (six in the Table 3
configuration); one :class:`EUThread` bundles everything a thread owns:
its program position, register file, flag registers, SIMT mask stack,
dependence scoreboard, and scheduling state.  A thread corresponds to
one SIMD-width slice of a workgroup (e.g. 16 work-items of a SIMD16
kernel).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from ..isa.instruction import Instruction
from ..isa.program import Program
from .grf import RegisterFile
from .maskstack import MaskStack, pred_mask
from .scoreboard import Scoreboard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.dispatch import WorkgroupInstance


class ThreadState(enum.Enum):
    """Scheduling state of a hardware thread slot."""

    ACTIVE = "active"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class EUThread:
    """One hardware thread executing a SIMD-width slice of a workgroup."""

    def __init__(
        self,
        thread_id: int,
        program: Program,
        dispatch_mask: int,
        workgroup: Optional["WorkgroupInstance"] = None,
        start_cycle: int = 0,
    ) -> None:
        self.thread_id = thread_id
        self.program = program
        self.pc = 0
        self._init_arch_state(dispatch_mask)
        self.scoreboard = Scoreboard()
        self.state = ThreadState.ACTIVE
        self.workgroup = workgroup
        #: Earliest cycle the thread may issue (dispatch/barrier latency).
        self.stall_until = start_cycle
        self.instructions_executed = 0
        self.last_issue_cycle = -1
        #: The next instruction's issue info ``(inst, deps, pipe_index,
        #: plan)`` and the cycle its scoreboard dependencies clear, both
        #: filled by the EU's scan (``ExecutionUnit._fetch``) and cleared
        #: by every issue.  Only this thread's own issues mutate its
        #: scoreboard, so the pair stays valid in between.
        self._packed_cache: Optional[tuple] = None
        self._ready_cache: Optional[int] = None

    def _init_arch_state(self, dispatch_mask: int) -> None:
        """The registers, flags and mask stack the interp engine executes
        on (a replayed thread reads its records instead and has none)."""
        self.grf = RegisterFile()
        self.flags = [0, 0]
        self.masks = MaskStack(self.program.simd_width, dispatch_mask)

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    def pred_mask(self, inst: Instruction) -> Optional[int]:
        """Evaluate the instruction's predicate flag (None = unpredicated)."""
        return pred_mask(inst, self.flags)

    def advance(self, next_pc: Optional[int]) -> None:
        """Move to *next_pc* (or fall through) after issuing an instruction."""
        self.pc = self.pc + 1 if next_pc is None else next_pc
        self._packed_cache = None
        self._ready_cache = None
        if not 0 <= self.pc <= len(self.program.instructions):
            raise RuntimeError(
                f"thread {self.thread_id} jumped to invalid pc {self.pc}"
            )
