"""Typed expression tree for the kernel DSL.

Every value in a traced kernel is an :class:`Expr` node with a fixed
element type; Python operators build the tree.  The same tree is walked
twice — by :mod:`repro.dsl.lower` to emit ISA instructions and by
:mod:`repro.dsl.reference` to compute the numpy host reference — which
is what makes the synthesized checker trustworthy: both sides execute
*one* definition of the kernel.

Type discipline is strict: mixing element types in one operation raises
:class:`~repro.errors.BuildError` at trace time (use :func:`cast`), and
the bitwise/shift operators reject float operands just like the builder.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..errors import BuildError
from ..isa.types import CmpOp, DType

#: Accepted spellings of an element type.
_DTYPES = {d.label: d for d in DType}

#: Binary operators with a direct ALU opcode (reference semantics in
#: repro.dsl.reference mirror repro.eu.interp for each).
BINOPS = ("add", "sub", "mul", "div", "and", "or", "xor", "shl", "shr",
          "min", "max", "pow")
#: Unary operators (NOT is integer-only; the rest are float math).
UNOPS = ("not", "abs", "floor", "sqrt", "rsqrt", "sin", "cos", "exp", "log")
#: Operators whose operands must be integer-typed.
INTEGER_ONLY = frozenset(("and", "or", "xor", "shl", "shr", "not"))

NumberLike = Union["Expr", int, float]


def as_dtype(dtype: Union[DType, str]) -> DType:
    if isinstance(dtype, DType):
        return dtype
    if dtype in _DTYPES:
        return _DTYPES[dtype]
    raise BuildError(f"unknown element type {dtype!r} "
                     f"(expected one of {sorted(_DTYPES)})")


def coerce(value: NumberLike, dtype: DType) -> "Expr":
    """Lift a Python number to a :class:`Const` of *dtype*; pass Exprs through."""
    if isinstance(value, Expr):
        if value.dtype is not dtype:
            raise BuildError(
                f"type mismatch: expected {dtype.label}, got "
                f"{value.dtype.label} (use dsl.cast)")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BuildError(f"cannot use {value!r} as a kernel value")
    if not dtype.is_float and isinstance(value, float):
        raise BuildError(
            f"float literal {value!r} used where {dtype.label} is expected")
    return Const(float(value) if dtype.is_float else int(value), dtype)


class Expr:
    """Base class for all DSL values (immutable, side-effect free)."""

    __slots__ = ("dtype",)

    def __init__(self, dtype: DType) -> None:
        self.dtype = dtype

    # -- structure ----------------------------------------------------------

    def key(self) -> tuple:
        """Structural identity, used for address CSE during lowering."""
        raise NotImplementedError

    def uses_vars(self) -> bool:
        """True when the value can change between loop iterations."""
        raise NotImplementedError

    # -- operator overloads --------------------------------------------------

    def _bin(self, op: str, other: NumberLike, reflected: bool = False) -> "BinOp":
        other = coerce(other, self.dtype)
        a, b = (other, self) if reflected else (self, other)
        return BinOp(op, a, b)

    def __add__(self, other): return self._bin("add", other)
    def __radd__(self, other): return self._bin("add", other, True)
    def __sub__(self, other): return self._bin("sub", other)
    def __rsub__(self, other): return self._bin("sub", other, True)
    def __mul__(self, other): return self._bin("mul", other)
    def __rmul__(self, other): return self._bin("mul", other, True)
    def __truediv__(self, other): return self._bin("div", other)
    def __rtruediv__(self, other): return self._bin("div", other, True)
    def __and__(self, other): return self._bin("and", other)
    def __rand__(self, other): return self._bin("and", other, True)
    def __or__(self, other): return self._bin("or", other)
    def __ror__(self, other): return self._bin("or", other, True)
    def __xor__(self, other): return self._bin("xor", other)
    def __rxor__(self, other): return self._bin("xor", other, True)
    def __lshift__(self, other): return self._bin("shl", other)
    def __rshift__(self, other): return self._bin("shr", other)

    def __neg__(self):
        return coerce(0, self.dtype)._bin("sub", self)

    def __invert__(self):
        return UnOp("not", self)

    def _cmp(self, op: CmpOp, other: NumberLike) -> "Compare":
        return Compare(op, self, coerce(other, self.dtype))

    def __lt__(self, other): return self._cmp(CmpOp.LT, other)
    def __le__(self, other): return self._cmp(CmpOp.LE, other)
    def __gt__(self, other): return self._cmp(CmpOp.GT, other)
    def __ge__(self, other): return self._cmp(CmpOp.GE, other)
    def __eq__(self, other): return self._cmp(CmpOp.EQ, other)  # type: ignore[override]
    def __ne__(self, other): return self._cmp(CmpOp.NE, other)  # type: ignore[override]

    __hash__ = object.__hash__  # __eq__ builds a node; identity hashing stays

    def __bool__(self) -> bool:
        raise BuildError(
            "a DSL expression has no Python truth value; use k.if_()/"
            "k.while_() for control flow and &/| to combine conditions")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Union[int, float], dtype: Union[DType, str]) -> None:
        super().__init__(as_dtype(dtype))
        self.value = float(value) if self.dtype.is_float else int(value)

    def key(self): return ("const", self.dtype.label, self.value)
    def uses_vars(self): return False


class GlobalId(Expr):
    """The per-lane global work-item id (I32)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(DType.I32)

    def key(self): return ("gid",)
    def uses_vars(self): return False


class Lane(Expr):
    """The lane index within the SIMD thread (I32, 0..width-1)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(DType.I32)

    def key(self): return ("lane",)
    def uses_vars(self): return False


class ScalarRef(Expr):
    """A scalar kernel argument, broadcast across lanes."""

    __slots__ = ("name",)

    def __init__(self, name: str, dtype: Union[DType, str]) -> None:
        super().__init__(as_dtype(dtype))
        self.name = name

    def key(self): return ("scalar", self.name)
    def uses_vars(self): return False


class BinOp(Expr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr) -> None:
        if op not in BINOPS:
            raise BuildError(f"unknown binary operator {op!r}")
        if a.dtype is not b.dtype:
            raise BuildError(
                f"type mismatch in {op}: {a.dtype.label} vs {b.dtype.label}")
        if op in INTEGER_ONLY and a.dtype.is_float:
            raise BuildError(f"{op} requires integer operands, got "
                             f"{a.dtype.label}")
        super().__init__(a.dtype)
        self.op = op
        self.a = a
        self.b = b

    def key(self): return ("bin", self.op, self.a.key(), self.b.key())
    def uses_vars(self): return self.a.uses_vars() or self.b.uses_vars()


class UnOp(Expr):
    __slots__ = ("op", "a")

    def __init__(self, op: str, a: Expr) -> None:
        if op not in UNOPS:
            raise BuildError(f"unknown unary operator {op!r}")
        if op == "not" and a.dtype.is_float:
            raise BuildError("not requires an integer operand")
        if op in ("sqrt", "rsqrt", "sin", "cos", "exp", "log") and \
                not a.dtype.is_float:
            raise BuildError(f"{op} requires a float operand, got "
                             f"{a.dtype.label}")
        super().__init__(a.dtype)
        self.op = op
        self.a = a

    def key(self): return ("un", self.op, self.a.key())
    def uses_vars(self): return self.a.uses_vars()


class Cast(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr, dtype: DType) -> None:
        super().__init__(dtype)
        self.a = a

    def key(self): return ("cast", self.dtype.label, self.a.key())
    def uses_vars(self): return self.a.uses_vars()


class Select(Expr):
    """Per-lane ``cond ? a : b`` (the ISA's SEL)."""

    __slots__ = ("cond", "a", "b")

    def __init__(self, cond: "Cond", a: Expr, b: Expr) -> None:
        if a.dtype is not b.dtype:
            raise BuildError(
                f"select arms disagree: {a.dtype.label} vs {b.dtype.label}")
        super().__init__(a.dtype)
        self.cond = cond
        self.a = a
        self.b = b

    def key(self): return ("select", self.cond.key(), self.a.key(), self.b.key())

    def uses_vars(self):
        return self.cond.uses_vars() or self.a.uses_vars() or self.b.uses_vars()


class Load(Expr):
    """A gather from a buffer argument at an element index, or with
    *byte* at an i32 byte offset (``buf.bytes[offset]``)."""

    __slots__ = ("buffer", "index", "byte")

    def __init__(self, buffer, index: Expr, byte: bool = False) -> None:
        super().__init__(buffer.dtype)
        if index.dtype is not DType.I32:
            raise BuildError(
                f"buffer index must be i32, got {index.dtype.label}")
        self.buffer = buffer
        self.index = index
        self.byte = byte

    def key(self):
        return ("load", self.buffer.name, self.byte, self.index.key())
    def uses_vars(self): return self.index.uses_vars()


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


class Cond:
    """A per-lane boolean: comparison or a boolean combination thereof."""

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def uses_vars(self) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Cond") -> "BoolOp":
        return BoolOp("and", (self, _as_cond(other)))

    def __or__(self, other: "Cond") -> "BoolOp":
        return BoolOp("or", (self, _as_cond(other)))

    def __invert__(self) -> "Cond":
        if isinstance(self, Compare):
            return Compare(_INVERSE[self.op], self.a, self.b)
        return Not(self)

    def __bool__(self) -> bool:
        raise BuildError(
            "a DSL condition has no Python truth value; pass it to "
            "k.if_()/k.while_()/k.break_if() or dsl.select()")


def _as_cond(value) -> Cond:
    if not isinstance(value, Cond):
        raise BuildError(f"expected a DSL condition, got {value!r}")
    return value


#: Comparison negations, used so ``~(a < b)`` stays a single CMP.  Only
#: valid for non-NaN data (the DSL's generated kernels never compare
#: NaNs); ordered-vs-unordered subtleties are out of the model's scope.
_INVERSE = {
    CmpOp.LT: CmpOp.GE, CmpOp.GE: CmpOp.LT,
    CmpOp.LE: CmpOp.GT, CmpOp.GT: CmpOp.LE,
    CmpOp.EQ: CmpOp.NE, CmpOp.NE: CmpOp.EQ,
}


class Compare(Cond):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: CmpOp, a: Expr, b: Expr) -> None:
        if a.dtype is not b.dtype:
            raise BuildError(
                f"compare mixes {a.dtype.label} and {b.dtype.label}")
        self.op = op
        self.a = a
        self.b = b

    def key(self): return ("cmp", self.op.value, self.a.key(), self.b.key())
    def uses_vars(self): return self.a.uses_vars() or self.b.uses_vars()


class BoolOp(Cond):
    __slots__ = ("op", "parts")

    def __init__(self, op: str, parts: Tuple[Cond, ...]) -> None:
        self.op = op
        self.parts = tuple(parts)

    def key(self):
        return ("bool", self.op) + tuple(p.key() for p in self.parts)

    def uses_vars(self): return any(p.uses_vars() for p in self.parts)


class Not(Cond):
    __slots__ = ("inner",)

    def __init__(self, inner: Cond) -> None:
        self.inner = inner

    def key(self): return ("not", self.inner.key())
    def uses_vars(self): return self.inner.uses_vars()


# ---------------------------------------------------------------------------
# Function-style helpers
# ---------------------------------------------------------------------------


def cast(value: Expr, dtype: Union[DType, str]) -> Expr:
    """Convert *value* to another element type (the ISA's CVT)."""
    dtype = as_dtype(dtype)
    if not isinstance(value, Expr):
        return coerce(value, dtype)
    if value.dtype is dtype:
        return value
    if isinstance(value, Const):  # fold: CVT wants a register source
        return Const(float(value.value) if dtype.is_float
                     else int(value.value), dtype)
    return Cast(value, dtype)


def select(cond: Cond, a: NumberLike, b: NumberLike) -> Select:
    """Per-lane ``cond ? a : b``."""
    if isinstance(a, Expr):
        b = coerce(b, a.dtype)
    elif isinstance(b, Expr):
        a = coerce(a, b.dtype)
    else:
        raise BuildError("select needs at least one Expr arm")
    return Select(_as_cond(cond), a, b)


def minimum(a: NumberLike, b: NumberLike) -> BinOp:
    a, b = _pair(a, b)
    return BinOp("min", a, b)


def maximum(a: NumberLike, b: NumberLike) -> BinOp:
    a, b = _pair(a, b)
    return BinOp("max", a, b)


def pow_(a: NumberLike, b: NumberLike) -> BinOp:
    a, b = _pair(a, b)
    return BinOp("pow", a, b)


def _pair(a: NumberLike, b: NumberLike) -> Tuple[Expr, Expr]:
    if isinstance(a, Expr):
        return a, coerce(b, a.dtype)
    if isinstance(b, Expr):
        return coerce(a, b.dtype), b
    raise BuildError("at least one operand must be a DSL expression")


def _unary(op: str):
    def fn(a: Expr) -> UnOp:
        if not isinstance(a, Expr):
            raise BuildError(f"{op} needs a DSL expression")
        return UnOp(op, a)
    fn.__name__ = op
    fn.__doc__ = f"Elementwise {op} (the ISA's {op.upper()} opcode)."
    return fn


abs_ = _unary("abs")
floor = _unary("floor")
sqrt = _unary("sqrt")
rsqrt = _unary("rsqrt")
sin = _unary("sin")
cos = _unary("cos")
exp = _unary("exp")
log = _unary("log")
