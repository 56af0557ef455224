"""Lower a :class:`~repro.dsl.trace.KernelTrace` to an ISA Program.

Walks the recorded statement tree and drives a
:class:`~repro.isa.builder.KernelBuilder`.  The mapping is direct —
structured `if_`/`while_` blocks become the ISA's IF/ELSE/ENDIF and
DO/WHILE/BREAK, expressions become ALU instructions — with two small
optimizations that keep the emitted code close to what the hand-written
kernels in :mod:`repro.kernels` look like:

* **fused multiply-add**: ``a * b + c`` lowers to one MAD;
* **address CSE**: byte-offset computations for loads/stores whose index
  is loop-invariant (references no mutable variable) are computed once
  per control-flow region and reused, so ``y[i] = a * x[i] + y[i]``
  shares a single ``SHL`` between all three accesses.  An index that
  reads variables is reused within its block until one of those
  variables is assigned or a nested branch or loop runs, so
  ``a[j] * b[j]`` — or ``a[j]`` and ``b[j]`` loaded by two statements
  — compute one ``SHL``.

Address CSE is scoped to the enclosing control-flow region: an address
first computed inside a divergent arm is not reused outside it, because
inactive lanes never executed the defining instruction.  A byte-offset
access (``buf.bytes[offset]``) takes no part in it: its offset is
evaluated where the access stands, with no ``SHL``, so a kernel spells
out its own address arithmetic instruction for instruction.

``k.else_()`` emits ``ELSE`` even when the arm it opens stays empty.

Register discipline: kernel state (variables, cached addresses, scalar
arguments) lives in pinned registers; expression temporaries come from
the builder's :meth:`~repro.isa.builder.KernelBuilder.temp` pool and are
released at each statement boundary, so deep expression trees do not
exhaust the GRF.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import BuildError
from ..isa.builder import KernelBuilder
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.registers import FlagRef, Imm, Operand, RegRef
from ..isa.types import CmpOp, DType
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
    BufferHandle,
    BufStore,
    DoWhile,
    IfStmt,
    KernelTrace,
    ScalarHandle,
    Stmt,
    VarHandle,
)

#: Name of the implicit problem-size scalar added when the global size
#: was padded past the true problem size (bounds-guard operand).
GUARD_PARAM = "__n"

_BIN_OPCODES = {
    "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL,
    "div": Opcode.DIV, "and": Opcode.AND, "or": Opcode.OR,
    "xor": Opcode.XOR, "shl": Opcode.SHL, "shr": Opcode.SHR,
    "min": Opcode.MIN, "max": Opcode.MAX, "pow": Opcode.POW,
}

_UN_OPCODES = {
    "not": Opcode.NOT, "abs": Opcode.ABS, "floor": Opcode.FLOOR,
    "sqrt": Opcode.SQRT, "rsqrt": Opcode.RSQRT, "sin": Opcode.SIN,
    "cos": Opcode.COS, "exp": Opcode.EXP, "log": Opcode.LOG,
}


def _uses_lane(statements: Sequence[Stmt]) -> bool:
    """Whether any expression in the statement tree reads ``k.lane``."""

    def expr_has(e) -> bool:
        if isinstance(e, Lane):
            return True
        if isinstance(e, (BinOp, Compare)):
            return expr_has(e.a) or expr_has(e.b)
        if isinstance(e, (UnOp, Cast)):
            return expr_has(e.a)
        if isinstance(e, Select):
            return expr_has(e.cond) or expr_has(e.a) or expr_has(e.b)
        if isinstance(e, Load):
            return expr_has(e.index)
        if isinstance(e, BoolOp):
            return any(expr_has(p) for p in e.parts)
        if isinstance(e, Not):
            return expr_has(e.inner)
        return False

    for stmt in statements:
        if isinstance(stmt, Assign):
            if expr_has(stmt.value):
                return True
        elif isinstance(stmt, BufStore):
            if expr_has(stmt.index) or expr_has(stmt.value):
                return True
        elif isinstance(stmt, IfStmt):
            if expr_has(stmt.cond) or _uses_lane(stmt.then) \
                    or _uses_lane(stmt.orelse):
                return True
        elif isinstance(stmt, DoWhile):
            if expr_has(stmt.cond) or _uses_lane(stmt.body):
                return True
        elif isinstance(stmt, BreakIf):
            if expr_has(stmt.cond):
                return True
    return False


def _reads_var(key: tuple, var: VarHandle) -> bool:
    """Whether structural *key* (see :meth:`Expr.key`) reads *var*."""
    if key == var.key():
        return True
    return any(isinstance(part, tuple) and _reads_var(part, var)
               for part in key)


def lower_trace(
    name: str,
    trace: KernelTrace,
    params: Sequence[Union[BufferHandle, ScalarHandle]],
    simd_width: int,
    guard: bool = False,
) -> Program:
    """Lower *trace* to a finalized Program.

    *params* is the kernel's argument list in signature order (buffer
    and scalar handles interleaved as declared).  With *guard* the whole
    body is wrapped in ``if (gid < __n)`` against an implicit trailing
    I32 scalar argument named :data:`GUARD_PARAM`.
    """
    return _Lowerer(name, trace, params, simd_width, guard).run()


class _Lowerer:
    def __init__(self, name, trace, params, simd_width, guard) -> None:
        self.b = KernelBuilder(name, simd_width=simd_width)
        self.trace = trace
        self.params = list(params)
        self.guard = guard
        self.surfaces: Dict[str, int] = {}
        self.scalars: Dict[str, RegRef] = {}
        self.slots: Dict[int, RegRef] = {}  # id(VarHandle) -> pinned reg
        self._lane: Optional[RegRef] = None
        self._temps: List[RegRef] = []  # current statement's scratch regs
        # Address-CSE scopes, innermost last; each maps expr key -> reg.
        self._addr_scopes: List[Dict[tuple, RegRef]] = [{}]
        # Variable-indexed addresses of the innermost block only: valid
        # until an index variable is assigned or a nested block runs.
        self._var_addrs: List[Dict[tuple, RegRef]] = [{}]

    def run(self) -> Program:
        for handle in self.params:
            if isinstance(handle, BufferHandle):
                self.surfaces[handle.name] = self.b.surface_arg(handle.name)
            else:
                self.scalars[handle.name] = self.b.scalar_arg(
                    handle.name, handle.dtype)
        # Materialize the lane index in the prologue, where every
        # dispatched lane is active.  Lazily emitting it at first use
        # would place the defining AND under that use's divergence mask,
        # leaving garbage in the register for the other lanes.
        if _uses_lane(self.trace.statements):
            self._lane_reg()
        if self.guard:
            n_reg = self.b.scalar_arg(GUARD_PARAM, DType.I32)
            flag = self.b.cmp(CmpOp.LT, self.b.global_id(), n_reg,
                              dtype=DType.I32)
            self.b.IF(flag)
            self._block(self.trace.statements)
            self.b.ENDIF()
        else:
            self._block(self.trace.statements)
        return self.b.finish()

    # -- statements ----------------------------------------------------------

    def _block(self, statements: Sequence[Stmt]) -> None:
        for stmt in statements:
            self._stmt(stmt)

    def _stmt(self, stmt: Stmt) -> None:
        outer = self._temps
        self._temps = []
        try:
            if isinstance(stmt, Assign):
                self._eval_into(self._slot(stmt.var), stmt.value)
                self._forget_var_addrs(stmt.var)
            elif isinstance(stmt, BufStore):
                addr = self._addr(stmt.buffer, stmt.index, stmt.byte)
                value = self._eval_reg(stmt.value)
                self.b.store(value, addr, self.surfaces[stmt.buffer.name])
            elif isinstance(stmt, IfStmt):
                self.b.IF(self._flag(stmt.cond))
                self._scoped_block(stmt.then)
                if stmt.has_else:
                    self.b.ELSE()
                    self._scoped_block(stmt.orelse)
                self.b.ENDIF()
                self._forget_var_addrs()
            elif isinstance(stmt, DoWhile):
                # The condition runs after the body, which may assign
                # anything, and lanes that break never run it: nothing
                # it computes may be reused after the loop.
                self._forget_var_addrs()
                self.b.do_()
                self._scoped_block(stmt.body)
                self._addr_scopes.append({})
                self.b.while_(self._flag(stmt.cond))
                for reg in self._addr_scopes.pop().values():
                    self.b.release(reg)
                self._forget_var_addrs()
            elif isinstance(stmt, BreakIf):
                self.b.break_(self._flag(stmt.cond))
            else:  # pragma: no cover - trace only builds the above
                raise BuildError(f"unknown statement {stmt!r}")
        finally:
            for reg in self._temps:
                self.b.release(reg)
            self._temps = outer

    def _forget_var_addrs(self, var: Optional[VarHandle] = None) -> None:
        """Release the innermost block's variable-indexed addresses: the
        ones whose index reads *var*, or all of them."""
        scope = self._var_addrs[-1]
        for key in [key for key in scope
                    if var is None or _reads_var(key, var)]:
            self.b.release(scope.pop(key))

    def _scoped_block(self, statements: Sequence[Stmt]) -> None:
        """Lower a divergent sub-block with its own address-CSE scope.

        Addresses first computed under a divergent mask are invalid for
        lanes that were inactive there, so they must not escape.
        """
        self._addr_scopes.append({})
        self._var_addrs.append({})
        try:
            self._block(statements)
        finally:
            for reg in self._var_addrs.pop().values():
                self.b.release(reg)
            for reg in self._addr_scopes.pop().values():
                self.b.release(reg)

    # -- registers -----------------------------------------------------------

    def _temp(self, dtype: DType) -> RegRef:
        reg = self.b.temp(dtype)
        self._temps.append(reg)
        return reg

    def _slot(self, var: VarHandle) -> RegRef:
        slot = self.slots.get(id(var))
        if slot is None:
            slot = self.b.vreg(var.dtype)
            self.slots[id(var)] = slot
        return slot

    def _lane_reg(self) -> RegRef:
        if self._lane is None:
            self._lane = self.b.vreg(DType.I32)
            self.b.and_(self._lane, self.b.local_id(),
                        self.b.simd_width - 1)
        return self._lane

    # -- expressions ---------------------------------------------------------

    def _eval_operand(self, e: Expr) -> Operand:
        if isinstance(e, Const):
            return Imm(e.value, e.dtype)
        if isinstance(e, GlobalId):
            return self.b.global_id()
        if isinstance(e, Lane):
            return self._lane_reg()
        if isinstance(e, VarHandle):
            return self.slots[id(e)]
        if isinstance(e, ScalarRef):
            try:
                return self.scalars[e.name]
            except KeyError:
                raise BuildError(
                    f"scalar {e.name!r} is not a parameter of this kernel")
        dst = self._temp(e.dtype)
        self._eval_into(dst, e)
        return dst

    def _eval_reg(self, e: Expr) -> RegRef:
        op = self._eval_operand(e)
        if isinstance(op, Imm):
            reg = self._temp(e.dtype)
            self.b.mov(reg, op)
            return reg
        return op

    def _eval_into(self, dst: RegRef, e: Expr) -> None:
        if isinstance(e, (Const, GlobalId, Lane, VarHandle, ScalarRef)):
            self.b.mov(dst, self._eval_operand(e))
        elif isinstance(e, BinOp):
            if e.op == "add" and isinstance(e.a, BinOp) and e.a.op == "mul":
                a = self._eval_operand(e.a.a)
                b = self._eval_operand(e.a.b)
                c = self._eval_operand(e.b)
                self.b.mad(dst, a, b, c)
            elif e.op == "add" and isinstance(e.b, BinOp) and e.b.op == "mul":
                c = self._eval_operand(e.a)
                a = self._eval_operand(e.b.a)
                b = self._eval_operand(e.b.b)
                self.b.mad(dst, a, b, c)
            else:
                a = self._eval_operand(e.a)
                b = self._eval_operand(e.b)
                self.b.alu(_BIN_OPCODES[e.op], dst, a, b)
        elif isinstance(e, UnOp):
            self.b.alu(_UN_OPCODES[e.op], dst, self._eval_operand(e.a))
        elif isinstance(e, Cast):
            self.b.cvt(dst, self._eval_reg(e.a))
        elif isinstance(e, Select):
            a = self._eval_operand(e.a)
            b = self._eval_operand(e.b)
            self.b.sel(dst, self._flag(e.cond), a, b)
        elif isinstance(e, Load):
            addr = self._addr(e.buffer, e.index, e.byte)
            self.b.load(dst, addr, self.surfaces[e.buffer.name])
        else:  # pragma: no cover - expr only builds the above
            raise BuildError(f"unknown expression {e!r}")

    def _addr(self, buffer: BufferHandle, index: Expr, byte: bool) -> RegRef:
        """Byte-offset register for buffer element *index* (with CSE),
        or for byte offset *index*, evaluated where it stands."""
        if byte:
            return self._eval_reg(index)
        shift = buffer.dtype.size.bit_length() - 1
        key = ("addr", shift, index.key())
        cacheable = not index.uses_vars()
        scopes = self._addr_scopes if cacheable else self._var_addrs[-1:]
        for scope in reversed(scopes):
            if key in scope:
                return scope[key]
        idx = self._eval_reg(index)
        addr = self.b.temp(DType.I32)  # pinned until scope exit or stale
        scopes[-1][key] = addr
        self.b.shl(addr, idx, shift)
        return addr

    # -- conditions ----------------------------------------------------------

    def _flag(self, cond: Cond) -> FlagRef:
        if isinstance(cond, Compare):
            a = self._eval_operand(cond.a)
            b = self._eval_operand(cond.b)
            return self.b.cmp(cond.op, a, b, dtype=cond.a.dtype)
        value = self._bool_value(cond)
        return self.b.cmp(CmpOp.NE, value, 0, dtype=DType.I32)

    def _bool_value(self, cond: Cond) -> RegRef:
        """Materialize a condition as an I32 0/1 vector (for &/| chains)."""
        if isinstance(cond, Compare):
            flag = self._flag(cond)
            reg = self._temp(DType.I32)
            self.b.sel(reg, flag, 1, 0)
            return reg
        if isinstance(cond, Not):
            inner = self._bool_value(cond.inner)
            reg = self._temp(DType.I32)
            self.b.xor(reg, inner, 1)
            return reg
        if isinstance(cond, BoolOp):
            opcode = Opcode.AND if cond.op == "and" else Opcode.OR
            acc = self._temp(DType.I32)
            first = self._bool_value(cond.parts[0])
            self.b.mov(acc, first)
            for part in cond.parts[1:]:
                self.b.alu(opcode, acc, acc, self._bool_value(part))
            return acc
        raise BuildError(f"unknown condition {cond!r}")  # pragma: no cover
