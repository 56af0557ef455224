"""Kernel tracing: record statements while the user's function runs.

The :class:`KernelTrace` object (conventionally ``k``) is the first
argument of every DSL kernel function.  Buffer/scalar handles index and
assign through it; structured control flow uses context managers that
mirror the ISA's structured IF/ELSE/ENDIF and DO/WHILE/BREAK blocks, so
the recorded statement tree maps 1:1 onto the builder's control flow.

The trace is the single source of truth: :mod:`repro.dsl.lower` turns
it into ISA instructions and :mod:`repro.dsl.reference` executes it with
numpy for the host reference check.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Union

from ..errors import BuildError
from ..isa.types import DType
from .expr import (
    Cond,
    Expr,
    GlobalId,
    Lane,
    Load,
    NumberLike,
    ScalarRef,
    _as_cond,
    as_dtype,
    coerce,
)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    """``var = expr`` (masked per-lane under divergent control flow)."""

    var: "VarHandle"
    value: Expr


@dataclass
class BufStore:
    """``buffer[index] = value``, or with *byte* ``buffer.bytes[index] =
    value`` (a scatter at i32 byte offsets)."""

    buffer: "BufferHandle"
    index: Expr
    value: Expr
    byte: bool = False


@dataclass
class IfStmt:
    cond: Cond
    then: List = field(default_factory=list)
    orelse: List = field(default_factory=list)
    #: Set by ``k.else_()``: the ELSE is emitted even for an empty arm.
    has_else: bool = False


@dataclass
class DoWhile:
    """Do-while loop: the body runs once, then repeats while cond holds."""

    body: List = field(default_factory=list)
    cond: Optional[Cond] = None


@dataclass
class BreakIf:
    """Lanes satisfying cond exit the innermost loop."""

    cond: Cond


Stmt = Union[Assign, BufStore, IfStmt, DoWhile, BreakIf]


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------


class VarHandle(Expr):
    """A mutable per-lane variable; read as an expression, write via .set()."""

    __slots__ = ("trace", "name")

    def __init__(self, trace: "KernelTrace", name: str, dtype: DType) -> None:
        super().__init__(dtype)
        self.trace = trace
        self.name = name

    def set(self, value: NumberLike) -> None:
        """Assign *value* to this variable (for the currently active lanes)."""
        self.trace._append(Assign(self, coerce(value, self.dtype)))

    def key(self):
        # Identity, not structure: a var's value changes between
        # assignments, so two reads of the same var are only equal when
        # nothing could have assigned in between — which uses_vars()
        # conservatively rules out for the lowering's CSE.
        return ("var", id(self))

    def uses_vars(self):
        return True

    def __repr__(self) -> str:
        return f"<var {self.name}:{self.dtype.label}>"


class BufferHandle:
    """A global buffer argument: ``h[index]`` loads, ``h[index] = v`` stores.

    ``h.bytes[offset]`` does the same at an i32 byte offset: the offset
    is the address as it stands, computed where the access is (no
    scaling SHL and no reuse of an earlier address).
    """

    __slots__ = ("trace", "name", "dtype", "role")

    #: Whether an index is a byte offset (see :attr:`bytes`).
    byte = False

    def __init__(self, trace: "KernelTrace", name: str, dtype: DType,
                 role: str) -> None:
        self.trace = trace
        self.name = name
        self.dtype = dtype
        self.role = role  # "in" | "out" | "inout"

    @property
    def bytes(self) -> "BufferHandle":
        """This buffer, indexed by i32 byte offset."""
        return _ByteView(self.trace, self.name, self.dtype, self.role)

    def __getitem__(self, index: NumberLike) -> Load:
        self.trace.reads.add(self.name)
        return Load(self, coerce(index, DType.I32), self.byte)

    def __setitem__(self, index: NumberLike, value: NumberLike) -> None:
        if self.role == "in":
            raise BuildError(
                f"buffer {self.name!r} is declared In; storing to it needs "
                f"Out or InOut")
        self.trace.writes.add(self.name)
        self.trace._append(BufStore(self, coerce(index, DType.I32),
                                    coerce(value, self.dtype), self.byte))

    def __repr__(self) -> str:
        return f"<buffer {self.name}:{self.dtype.label} ({self.role})>"


class _ByteView(BufferHandle):
    __slots__ = ()
    byte = True


class ScalarHandle(ScalarRef):
    """A scalar kernel argument handle (readable expression)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# The trace object
# ---------------------------------------------------------------------------


class KernelTrace:
    """Records the statement tree of one kernel function invocation."""

    def __init__(self, simd_width: int) -> None:
        self.simd_width = simd_width
        self.statements: List[Stmt] = []
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self._sinks: List[List[Stmt]] = [self.statements]
        self._open: List[Stmt] = []  # enclosing IfStmt/DoWhile nodes
        self._var_count = 0

    # -- dispatch payload ----------------------------------------------------

    @property
    def gid(self) -> GlobalId:
        """Per-lane global work-item id (i32)."""
        return GlobalId()

    @property
    def lane(self) -> Lane:
        """Lane index within the SIMD thread (i32, 0..simd_width-1)."""
        return Lane()

    # -- variables -----------------------------------------------------------

    def var(self, init: NumberLike, dtype: Optional[Union[DType, str]] = None,
            name: Optional[str] = None) -> VarHandle:
        """Declare a mutable per-lane variable initialized to *init*."""
        if dtype is None:
            if not isinstance(init, Expr):
                raise BuildError(
                    "k.var() needs an explicit dtype for literal initializers"
                    " (e.g. k.var(0, 'i32'))")
            resolved = init.dtype
        else:
            resolved = as_dtype(dtype)
        self._var_count += 1
        handle = VarHandle(self, name or f"v{self._var_count}", resolved)
        handle.set(init)
        return handle

    # -- statements ----------------------------------------------------------

    def _append(self, stmt: Stmt) -> None:
        self._sinks[-1].append(stmt)

    @contextlib.contextmanager
    def if_(self, cond: Cond) -> Iterator[None]:
        """Structured IF block; call :meth:`else_` inside for an else arm."""
        node = IfStmt(_as_cond(cond))
        self._append(node)
        self._open.append(node)
        self._sinks.append(node.then)
        try:
            yield
        finally:
            self._sinks.pop()
            self._open.pop()

    def else_(self) -> None:
        """Switch to the else arm inside the innermost ``with k.if_``."""
        if not self._open or not isinstance(self._open[-1], IfStmt):
            raise BuildError("k.else_() outside a k.if_() block")
        node = self._open[-1]
        if node.has_else:
            raise BuildError("duplicate k.else_() in one k.if_() block")
        node.has_else = True
        self._sinks[-1] = node.orelse

    @contextlib.contextmanager
    def while_(self, cond: Cond) -> Iterator[None]:
        """Structured do-while loop (the ISA's DO ... WHILE).

        The body always executes at least once; *cond* is evaluated
        after each iteration and lanes for which it still holds iterate
        again.  Guarantee progress: every path through the body must
        advance the loop variable, or lowering's simulation will hit the
        cycle watchdog.
        """
        node = DoWhile(cond=_as_cond(cond))
        self._append(node)
        self._open.append(node)
        self._sinks.append(node.body)
        try:
            yield
        finally:
            self._sinks.pop()
            self._open.pop()

    def break_if(self, cond: Cond) -> None:
        """Lanes satisfying *cond* exit the innermost ``with k.while_``."""
        if not any(isinstance(s, DoWhile) for s in self._open):
            raise BuildError("k.break_if() outside a k.while_() loop")
        self._append(BreakIf(_as_cond(cond)))

    # -- trace inspection ----------------------------------------------------

    def is_divergent(self) -> bool:
        """True when the trace contains any branch or loop."""

        def walk(stmts) -> bool:
            for s in stmts:
                if isinstance(s, (IfStmt, DoWhile, BreakIf)):
                    return True
            return False

        return walk(self.statements) or any(
            isinstance(s, (IfStmt, DoWhile)) for s in self._iter_all())

    def _iter_all(self) -> Iterator[Stmt]:
        stack = list(self.statements)
        while stack:
            s = stack.pop()
            yield s
            if isinstance(s, IfStmt):
                stack.extend(s.then)
                stack.extend(s.orelse)
            elif isinstance(s, DoWhile):
                stack.extend(s.body)
