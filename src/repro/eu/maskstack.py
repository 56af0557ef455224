"""SIMT execution-mask stack for structured control flow.

The EU keeps, per thread, the current execution mask plus a stack of
frames for nested IF/ELSE/ENDIF blocks and DO/BREAK/WHILE loops (the
"stack of predicate registers" lineage the paper cites back to the Chap
GPU).  The mask produced here, ANDed with the instruction's predicate
and the dispatch mask, is exactly the *final SIMD execution mask* that
the BCC/SCC control logic inspects (paper Section 2.2, decode stage).

Divergence semantics implemented:

* ``IF f``    — push a frame; active lanes split into taken / not-taken.
  An empty taken set jumps straight to the else arm (or ENDIF).
* ``ELSE``    — switch to the frame's not-taken lanes; empty set jumps
  to ENDIF.
* ``ENDIF``   — pop; the pre-IF lanes resume.
* ``DO``      — push a loop frame; an empty current mask skips the loop.
* ``BREAK f`` — deactivate lanes until the loop exits.  Broken lanes are
  also stripped from every enclosing IF frame *inside* the loop so an
  ENDIF cannot resurrect them mid-loop.
* ``WHILE f`` — lanes with *f* set iterate again (back edge); when none
  survive, the loop frame pops and the loop-entry lanes resume.

Both engines execute control through :meth:`MaskStack.control` and
evaluate predicates through :func:`pred_mask`; the batched engine keeps
one :class:`MaskStack` per thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode


def pred_mask(inst: Instruction, flags):
    """The flag value under ``inst.pred``, or None when unpredicated.

    ``flags[i]`` is flag register *i*: an int bitmask for one thread, or
    a uint64 vector over a block of threads.  Negation comes first, then
    the clip to the instruction's width.
    """
    pred = inst.pred
    if pred is None:
        return None
    value = flags[pred.index]
    if pred.negate:
        value = ~value
    return value & ((1 << inst.width) - 1)


@dataclass
class _IfFrame:
    else_mask: int
    restore_mask: int
    in_else: bool = False


@dataclass
class _LoopFrame:
    restore_mask: int
    break_mask: int = 0


class MaskStack:
    """Current execution mask + structured-divergence frame stack."""

    def __init__(self, width: int, dispatch_mask: Optional[int] = None) -> None:
        self.width = width
        full = (1 << width) - 1
        self.dispatch_mask = full if dispatch_mask is None else (dispatch_mask & full)
        self.current = self.dispatch_mask
        self._frames: List[object] = []

    @property
    def depth(self) -> int:
        """Nesting depth (number of open frames)."""
        return len(self._frames)

    def exec_mask(self, pred_mask: Optional[int] = None) -> int:
        """Final execution mask for an instruction.

        ``pred_mask`` is the instruction's predicate flag value (already
        negated if the predicate is inverted); ``None`` means unpredicated.
        """
        if pred_mask is None:
            return self.current
        return self.current & pred_mask

    def control(self, inst: Instruction, pred: Optional[int],
                instructions: List[Instruction]) -> Optional[int]:
        """Execute structured control instruction *inst* (any but EOT).

        *pred* is its predicate value (:func:`pred_mask`); *instructions*
        is the program, for IF's "target is an ELSE" test.  Returns the
        next PC, or None for fall-through.
        """
        op = inst.opcode
        if op is Opcode.IF:
            target = inst.target
            return self.do_if(pred, target, target > 0 and (
                instructions[target - 1].opcode is Opcode.ELSE))
        if op is Opcode.ELSE:
            return self.do_else(inst.target)
        if op is Opcode.ENDIF:
            return self.do_endif()
        if op is Opcode.DO:
            return self.do_do(inst.target)
        if op is Opcode.BREAK:
            return self.do_break(pred)
        if op is Opcode.WHILE:
            return self.do_while(pred, inst.target)
        raise NotImplementedError(f"control opcode {op}")

    # Each control method returns the next PC, or None for fall-through.

    def do_if(self, flag_mask: int, target: int, target_is_else: bool) -> Optional[int]:
        taken = self.current & flag_mask
        frame = _IfFrame(else_mask=self.current & ~flag_mask & self.dispatch_mask,
                         restore_mask=self.current)
        self._frames.append(frame)
        self.current = taken
        if taken == 0:
            if target_is_else:
                frame.in_else = True
                self.current = frame.else_mask
            return target
        return None

    def do_else(self, target: int) -> Optional[int]:
        frame = self._top_if("ELSE")
        if frame.in_else:
            raise RuntimeError("ELSE executed twice for the same IF")
        frame.in_else = True
        self.current = frame.else_mask
        if self.current == 0:
            return target  # jump to ENDIF
        return None

    def do_endif(self) -> None:
        frame = self._frames.pop() if self._frames else None
        if not isinstance(frame, _IfFrame):
            raise RuntimeError("ENDIF without matching IF frame")
        self.current = frame.restore_mask

    def do_do(self, target: int) -> Optional[int]:
        if self.current == 0:
            # No active lanes: skip the whole loop body (jump past WHILE).
            return target
        self._frames.append(_LoopFrame(restore_mask=self.current))
        return None

    def do_break(self, flag_mask: int) -> None:
        breaking = self.current & flag_mask
        if breaking == 0:
            return
        loop_idx = self._innermost_loop_index("BREAK")
        loop = self._frames[loop_idx]
        loop.break_mask |= breaking
        # Strip broken lanes from the current mask and from every IF frame
        # nested inside the loop, so ENDIF restores cannot re-enable them.
        self.current &= ~breaking
        for frame in self._frames[loop_idx + 1 :]:
            if isinstance(frame, _IfFrame):
                frame.else_mask &= ~breaking
                frame.restore_mask &= ~breaking

    def do_while(self, flag_mask: int, back_target: int) -> Optional[int]:
        loop_idx = self._innermost_loop_index("WHILE")
        if loop_idx != len(self._frames) - 1:
            raise RuntimeError("WHILE executed with unclosed IF inside the loop")
        continuing = self.current & flag_mask
        if continuing:
            self.current = continuing
            return back_target
        loop = self._frames.pop()
        self.current = loop.restore_mask
        return None

    # -- helpers -----------------------------------------------------------

    def _top_if(self, what: str) -> _IfFrame:
        if not self._frames or not isinstance(self._frames[-1], _IfFrame):
            raise RuntimeError(f"{what} without an open IF frame")
        return self._frames[-1]

    def _innermost_loop_index(self, what: str) -> int:
        for idx in range(len(self._frames) - 1, -1, -1):
            if isinstance(self._frames[idx], _LoopFrame):
                return idx
        raise RuntimeError(f"{what} outside any loop")
