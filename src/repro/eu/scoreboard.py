"""Per-thread dependence scoreboard.

Paper Section 2.2, stage 3: each EU thread checks and sets register
dependencies before its instructions are queued for arbitration.  The
scoreboard tracks, per GRF register and per flag register, the cycle at
which the value in flight becomes available; an instruction is issueable
once every register it reads or writes is available (reads wait for RAW,
writes for WAW/structural write-back).
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode


class Scoreboard:
    """Register/flag readiness tracking for one EU thread."""

    def __init__(self) -> None:
        self._reg_ready: Dict[int, int] = {}
        self._flag_ready: Dict[int, int] = {}

    def ready_at(self, inst: Instruction) -> int:
        """Earliest cycle at which *inst*'s dependencies are all met."""
        if not self._reg_ready and not self._flag_ready:
            return 0  # nothing in flight — common right after dispatch
        ready = 0
        for reg in inst.reads():
            ready = max(ready, self._reg_ready.get(reg, 0))
        for reg in inst.writes():
            ready = max(ready, self._reg_ready.get(reg, 0))
        if inst.pred is not None:
            ready = max(ready, self._flag_ready.get(inst.pred.index, 0))
        if inst.flag_dst is not None:
            ready = max(ready, self._flag_ready.get(inst.flag_dst.index, 0))
        # Memory operations read their address and data registers too
        # (covered by inst.reads()); barriers and control have no deps.
        return ready

    def is_ready(self, inst: Instruction, now: int) -> bool:
        """True when *inst* can issue at cycle *now*."""
        return self.ready_at(inst) <= now

    def mark_write(self, regs: Iterable[int], ready_cycle: int) -> None:
        """Record that *regs* become available at *ready_cycle*."""
        for reg in regs:
            current = self._reg_ready.get(reg, 0)
            if ready_cycle > current:
                self._reg_ready[reg] = ready_cycle

    def mark_flag_write(self, flag_index: int, ready_cycle: int) -> None:
        """Record that flag *flag_index* becomes available at *ready_cycle*."""
        current = self._flag_ready.get(flag_index, 0)
        if ready_cycle > current:
            self._flag_ready[flag_index] = ready_cycle

    def record(self, inst: Instruction, completion_cycle: int) -> None:
        """Set in-flight state for an issued instruction."""
        if inst.opcode.writes_dst and inst.dst is not None:
            self.mark_write(inst.writes(), completion_cycle)
        if inst.opcode is Opcode.CMP and inst.flag_dst is not None:
            self.mark_flag_write(inst.flag_dst.index, completion_cycle)

    def pending_max(self) -> int:
        """Latest outstanding ready cycle (0 when nothing is in flight)."""
        latest = 0
        if self._reg_ready:
            latest = max(latest, max(self._reg_ready.values()))
        if self._flag_ready:
            latest = max(latest, max(self._flag_ready.values()))
        return latest
