"""Python kernel frontend: write EU kernels without hand-assembly.

A DSL kernel is an ordinary Python function over typed handles.  Calling
it *traces* an expression/statement tree; the tree is then consumed
twice — lowered to a :class:`repro.isa.program.Program` through
:class:`~repro.isa.builder.KernelBuilder`, and executed vectorized with
numpy to synthesize the host reference checker — so one decorator turns
the function into a full registry :class:`~repro.kernels.workload.Workload`
(program + buffers + launch steps + check)::

    from repro import dsl

    @dsl.kernel(n=512, name="my_axpy")
    def my_axpy(k, x=dsl.In("f32"), y=dsl.InOut("f32"),
                a=dsl.Scalar("f32", default=1.5)):
        i = k.gid
        y[i] = a * x[i] + y[i]

    workload = my_axpy()          # a Workload, like any registry factory

Control flow is structured (`with k.if_(cond): ... k.else_() ...`,
do-while `with k.while_(cond):`, `k.break_if(cond)`) and mirrors the
ISA's IF/ELSE/ENDIF and DO/WHILE/BREAK exactly (``k.else_()`` emits
ELSE even when its arm stays empty).  ``buf[i]`` addresses element *i*;
``buf.bytes[off]`` addresses i32 byte offset *off* as written, with no
scaling shift and no address reuse, for kernels that spell out their
own address arithmetic.  Launch parameters are
auto-derived: the global size is the problem size padded up to a SIMD
width multiple (hindemith-style), with a bounds guard inserted whenever
padding occurred.

:mod:`repro.dsl.stress` mass-produces divergence-stress workloads from
this frontend, parameterized by branch nesting depth, mask entropy,
loop trip-count variance, and memory-access divergence.
"""

from .expr import (
    Cond,
    Const,
    Expr,
    abs_,
    cast,
    cos,
    exp,
    floor,
    log,
    maximum,
    minimum,
    pow_,
    rsqrt,
    select,
    sin,
    sqrt,
)
from .frontend import DslKernel, In, InOut, Out, Scalar, kernel
from .stress import (
    STRESS_PREFIX,
    parse_stress_name,
    stress_batch,
    stress_name,
    stress_workload,
)

__all__ = [
    "Cond",
    "Const",
    "DslKernel",
    "Expr",
    "In",
    "InOut",
    "Out",
    "STRESS_PREFIX",
    "Scalar",
    "abs_",
    "cast",
    "cos",
    "exp",
    "floor",
    "kernel",
    "log",
    "maximum",
    "minimum",
    "parse_stress_name",
    "pow_",
    "rsqrt",
    "select",
    "sin",
    "sqrt",
    "stress_batch",
    "stress_name",
    "stress_workload",
]
