"""Vectorized numpy execution of a kernel trace (the host reference).

Runs the same statement tree that :mod:`repro.dsl.lower` compiles,
entirely in numpy, over all work-items at once with per-lane activity
masks — effectively an infinitely-wide SIMD machine with the paper's
structured-mask semantics.  Because every arithmetic step mirrors the
functional interpreter (:mod:`repro.eu.interp`) operation for operation
— same numpy dtypes, same shift clamping, same divide-by-zero rule,
same highest-lane-wins scatter — the results are *bit-identical* to the
simulator, which is what lets the frontend synthesize an exact-equality
checker instead of a tolerance-based one.

Ordering caveat (documented kernel-author contract): the reference
commits scatter conflicts in ascending global-id order per statement.
The simulator does the same within one SIMD thread, but threads of one
launch run to completion sequentially — so kernels whose *loop* stores
conflict across work-items would see different interleavings.  DSL
kernels should store to work-item-private locations, as the built-in and
stress kernels do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import BuildError
from ..eu.interp import _checked_indices
from ..isa.types import DType
from .expr import (
    BinOp,
    BoolOp,
    Cast,
    Compare,
    Cond,
    Const,
    Expr,
    GlobalId,
    Lane,
    Load,
    Not,
    ScalarRef,
    Select,
    UnOp,
)
from .trace import (
    Assign,
    BreakIf,
    BufStore,
    DoWhile,
    IfStmt,
    KernelTrace,
    VarHandle,
)

#: Iteration cap for reference loops; a trace whose loop never drains
#: its live mask is a kernel bug, reported instead of hanging.
LOOP_CAP = 65536


def run_reference(
    trace: KernelTrace,
    buffers: Dict[str, np.ndarray],
    scalars: Dict[str, float],
    global_size: int,
    n: Optional[int] = None,
) -> None:
    """Execute *trace* over *global_size* work-items, mutating *buffers*.

    *n* is the true problem size: work-items at or past it are masked
    off, mirroring the lowered program's ``gid < __n`` guard (pass None
    when the launch was not padded).
    """
    _Reference(trace, buffers, scalars, global_size, n).run()


class _Reference:
    def __init__(self, trace, buffers, scalars, global_size, n) -> None:
        self.trace = trace
        self.buffers = buffers
        self.scalars = scalars
        self.size = global_size
        self.gid = np.arange(global_size, dtype=np.int32)
        self.lane = (self.gid % trace.simd_width).astype(np.int32)
        if n is None:
            self.guard = np.ones(global_size, dtype=bool)
        else:
            self.guard = self.gid < n
        self.vars: Dict[int, np.ndarray] = {}
        self._loops: List[np.ndarray] = []  # live masks, innermost last

    def run(self) -> None:
        # IEEE results (inf/nan, integer wrap-around) as the hardware
        # gives them, without numpy's floating-point warnings.
        with np.errstate(all="ignore"):
            self._block(self.trace.statements, [])

    # -- statements ----------------------------------------------------------

    def _mask(self, conds: List[np.ndarray]) -> np.ndarray:
        mask = self.guard.copy()
        for cond in conds:
            mask &= cond
        for live in self._loops:
            mask &= live
        return mask

    def _block(self, statements, conds: List[np.ndarray]) -> None:
        for stmt in statements:
            # Recomputed per statement: a BreakIf anywhere inside the
            # loop shrinks the live mask for everything after it.
            mask = self._mask(conds)
            if isinstance(stmt, Assign):
                value = self._eval(stmt.value, mask)
                slot = self.vars.get(id(stmt.var))
                if slot is None:
                    slot = np.zeros(self.size, dtype=stmt.var.dtype.np_dtype)
                self.vars[id(stmt.var)] = np.where(mask, value, slot)
            elif isinstance(stmt, BufStore):
                self._store(stmt, mask)
            elif isinstance(stmt, IfStmt):
                cond = self._cond(stmt.cond, mask)
                self._block(stmt.then, conds + [cond])
                if stmt.orelse:
                    self._block(stmt.orelse, conds + [~cond])
            elif isinstance(stmt, DoWhile):
                self._loop(stmt, conds)
            elif isinstance(stmt, BreakIf):
                if not self._loops:  # pragma: no cover - trace validates
                    raise BuildError("break outside a loop")
                broken = mask & self._cond(stmt.cond, mask)
                self._loops[-1] &= ~broken
            else:  # pragma: no cover - trace only builds the above
                raise BuildError(f"unknown statement {stmt!r}")

    def _loop(self, stmt: DoWhile, conds: List[np.ndarray]) -> None:
        live = self._mask(conds)
        self._loops.append(live)
        try:
            for _ in range(LOOP_CAP):
                if not live.any():
                    break
                self._block(stmt.body, conds)
                mask = self._mask(conds)
                live &= self._cond(stmt.cond, mask)
            else:
                raise BuildError(
                    f"reference loop exceeded {LOOP_CAP} iterations "
                    f"(non-terminating kernel loop?)")
        finally:
            self._loops.pop()

    def _elements(self, access, index: np.ndarray, mask: np.ndarray,
                  verb: str) -> np.ndarray:
        """Element indices of a Load/BufStore's enabled lanes (others are
        0), raising the simulator's errors for a byte offset that is
        misaligned or out of range and an element index out of range."""
        data = self.buffers[access.buffer.name]
        if access.byte:
            # One row per SIMD thread, so an error names the lane the
            # simulator names.
            rows = (-1, self.trace.simd_width)
            index, _ = _checked_indices(
                data.view(np.uint8), index.reshape(rows), mask.reshape(rows),
                access.buffer.dtype, verb)
            index = index.reshape(-1)
        else:
            bad = mask & ((index < 0) | (index >= data.shape[0]))
            if bad.any():
                lane = int(np.argmax(bad))
                raise IndexError(
                    f"work-item {lane} {verb} {access.buffer.name}"
                    f"[{int(index[lane])}], beyond its {data.shape[0]} "
                    f"elements")
        # Inactive lanes may hold wild indices (their values are never
        # consumed); zero them so a gather cannot fault.
        return np.where(mask, index, index.dtype.type(0))

    def _store(self, stmt: BufStore, mask: np.ndarray) -> None:
        index = self._eval(stmt.index, mask)
        value = self._eval(stmt.value, mask)
        index = self._elements(stmt, index, mask, "writes")
        # Fancy assignment applies lanes in ascending order, so scatter
        # conflicts keep the highest work-item's value — matching the
        # interpreter's quad write-back order.
        self.buffers[stmt.buffer.name][index[mask]] = value[mask]

    # -- expressions ---------------------------------------------------------

    def _eval(self, e: Expr, mask: np.ndarray) -> np.ndarray:
        dtype = e.dtype.np_dtype
        if isinstance(e, Const):
            return np.full(self.size, e.value, dtype=dtype)
        if isinstance(e, GlobalId):
            return self.gid
        if isinstance(e, Lane):
            return self.lane
        if isinstance(e, VarHandle):
            slot = self.vars.get(id(e))
            if slot is None:
                raise BuildError(f"variable {e.name!r} read before assignment")
            return slot
        if isinstance(e, ScalarRef):
            try:
                value = self.scalars[e.name]
            except KeyError:
                raise BuildError(f"no value bound for scalar {e.name!r}")
            return np.full(self.size, value, dtype=dtype)
        if isinstance(e, BinOp):
            a = self._eval(e.a, mask)
            b = self._eval(e.b, mask)
            return self._binop(e, a, b)
        if isinstance(e, UnOp):
            return self._unop(e, self._eval(e.a, mask))
        if isinstance(e, Cast):
            return self._eval(e.a, mask).astype(dtype)
        if isinstance(e, Select):
            cond = self._cond(e.cond, mask)
            return np.where(cond, self._eval(e.a, mask), self._eval(e.b, mask))
        if isinstance(e, Load):
            return self._load(e, mask)
        raise BuildError(f"unknown expression {e!r}")  # pragma: no cover

    def _load(self, e: Load, mask: np.ndarray) -> np.ndarray:
        index = self._elements(e, self._eval(e.index, mask), mask, "reads")
        out = self.buffers[e.buffer.name][index]
        # Disabled lanes read as 0, like the interpreter's gather.
        zero = np.zeros(1, dtype=e.dtype.np_dtype)
        return np.where(mask, out, zero)

    def _binop(self, e: BinOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        op = e.op
        dtype = e.dtype
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if dtype.is_float:
                return a / b
            safe = np.where(b == 0, 1, b)
            return np.where(b == 0, 0, a // safe).astype(a.dtype)
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "shl":
            return (
                a.astype(np.int64).astype(np.uint64)
                << _shift_amounts(b, dtype).astype(np.uint64)
            ).astype(dtype.np_dtype)
        if op == "shr":
            return (a.astype(np.int64)
                    >> _shift_amounts(b, dtype)).astype(dtype.np_dtype)
        if op == "min":
            return np.minimum(a, b)
        if op == "max":
            return np.maximum(a, b)
        if op == "pow":
            return np.power(a, b)
        raise BuildError(f"unknown binary operator {e.op!r}")  # pragma: no cover

    def _unop(self, e: UnOp, a: np.ndarray) -> np.ndarray:
        op = e.op
        if op == "not":
            return ~a
        if op == "abs":
            return np.abs(a)
        if op == "floor":
            return np.floor(a) if e.dtype.is_float else a
        if op == "sqrt":
            return np.sqrt(a)
        if op == "rsqrt":
            return 1.0 / np.sqrt(a)
        if op == "sin":
            return np.sin(a)
        if op == "cos":
            return np.cos(a)
        if op == "exp":
            return np.exp(a)
        if op == "log":
            return np.log(a)
        raise BuildError(f"unknown unary operator {e.op!r}")  # pragma: no cover

    # -- conditions ----------------------------------------------------------

    def _cond(self, cond: Cond, mask: np.ndarray) -> np.ndarray:
        if isinstance(cond, Compare):
            result = cond.op.apply(self._eval(cond.a, mask),
                                   self._eval(cond.b, mask))
            return np.asarray(result, dtype=bool)
        if isinstance(cond, Not):
            return ~self._cond(cond.inner, mask)
        if isinstance(cond, BoolOp):
            acc = self._cond(cond.parts[0], mask)
            for part in cond.parts[1:]:
                if cond.op == "and":
                    acc = acc & self._cond(part, mask)
                else:
                    acc = acc | self._cond(part, mask)
            return acc
        raise BuildError(f"unknown condition {cond!r}")  # pragma: no cover


def _shift_amounts(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Shift-amount clamp, identical to :func:`repro.eu.interp._shift_amounts`."""
    return np.clip(values.astype(np.int64), 0, dtype.size * 8 - 1)
