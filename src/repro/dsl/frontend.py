"""The ``@dsl.kernel`` decorator: one Python function → one Workload.

Argument specs are given as parameter *defaults* (an OpenCL-like
signature)::

    @dsl.kernel(n=512)
    def axpy(k, x=dsl.In("f32"), y=dsl.InOut("f32"),
             a=dsl.Scalar("f32", default=1.5)):
        i = k.gid
        y[i] = a * x[i] + y[i]

Calling the decorated object builds a fresh
:class:`~repro.kernels.workload.Workload`:

* the function is traced once (:mod:`repro.dsl.trace`);
* the trace is lowered to a Program (:mod:`repro.dsl.lower`);
* buffers are materialized from the specs (seeded random inputs,
  zeroed outputs);
* the launch is derived: global size is *n* padded up to the SIMD
  width, and when padding occurred the program carries a ``gid < __n``
  bounds guard whose value rides in the launch scalars;
* the checker replays the same trace with numpy
  (:mod:`repro.dsl.reference`) from a snapshot of the written buffers'
  initial contents (read-only inputs are read as they are) and
  compares every written buffer for exact equality.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

from ..errors import BuildError
from ..isa.types import DType

if TYPE_CHECKING:  # break the repro.kernels <-> repro.dsl import cycle:
    # the registry package imports the DSL kernels at load time, so the
    # workload types are pulled in lazily at build time instead.
    from ..kernels.workload import Workload
from .expr import as_dtype
from .lower import GUARD_PARAM, lower_trace
from .reference import run_reference
from .trace import BufferHandle, KernelTrace, ScalarHandle


class _BufferSpec:
    """Shared shape of the In/Out/InOut argument declarations."""

    role = ""

    def __init__(self, dtype: Union[DType, str] = "f32",
                 size: Optional[int] = None,
                 init: Optional[Callable] = None) -> None:
        self.dtype = as_dtype(dtype)
        self.size = size
        self.init = init

    def materialize(self, rng: np.random.Generator, n: int) -> np.ndarray:
        size = self.size if self.size is not None else n
        if self.init is not None:
            data = np.asarray(self.init(rng, size), dtype=self.dtype.np_dtype)
            if data.shape != (size,):
                raise BuildError(
                    f"init callable returned shape {data.shape}, "
                    f"expected ({size},)")
            return data
        if self.role == "out":
            return np.zeros(size, dtype=self.dtype.np_dtype)
        if self.dtype.is_float:
            return rng.uniform(0.0, 1.0, size).astype(self.dtype.np_dtype)
        return rng.integers(0, 64, size).astype(self.dtype.np_dtype)


class In(_BufferSpec):
    """A read-only buffer argument (seeded random contents by default)."""

    role = "in"


class Out(_BufferSpec):
    """A write-only buffer argument (zero-initialized)."""

    role = "out"


class InOut(_BufferSpec):
    """A read-write buffer argument (seeded random contents by default)."""

    role = "inout"


class Scalar:
    """A scalar kernel argument with a default launch value."""

    def __init__(self, dtype: Union[DType, str] = "f32",
                 default: Union[int, float] = 0) -> None:
        self.dtype = as_dtype(dtype)
        if self.dtype.is_float:
            self.default = float(default)
        elif isinstance(default, float):
            raise BuildError(
                f"scalar default {default!r} is float but the scalar is "
                f"{self.dtype.label}")
        else:
            self.default = int(default)


class DslKernel:
    """A traced kernel definition; calling it builds a Workload."""

    def __init__(self, fn: Callable, *, n: int, simd_width: int, seed: int,
                 name: Optional[str], category: Optional[str],
                 description: str, local_size: Optional[int]) -> None:
        self.fn = fn
        self.name = name or fn.__name__
        self.n = n
        self.simd_width = simd_width
        self.seed = seed
        self.category = category
        self.local_size = local_size
        doc = inspect.getdoc(fn)
        self.description = description or (doc.splitlines()[0] if doc else "")
        self.specs = self._collect_specs(fn)
        self.__doc__ = fn.__doc__
        self.__name__ = self.name

    @staticmethod
    def _collect_specs(fn: Callable) -> Dict[str, Union[_BufferSpec, Scalar]]:
        params = list(inspect.signature(fn).parameters.values())
        if not params:
            raise BuildError(
                f"{fn.__name__} needs a leading trace parameter (k)")
        specs: Dict[str, Union[_BufferSpec, Scalar]] = {}
        for param in params[1:]:
            spec = param.default
            if not isinstance(spec, (_BufferSpec, Scalar)):
                raise BuildError(
                    f"{fn.__name__}: parameter {param.name!r} must default "
                    f"to dsl.In/dsl.Out/dsl.InOut/dsl.Scalar, got "
                    f"{spec!r}")
            specs[param.name] = spec
        return specs

    # -- tracing and lowering ------------------------------------------------

    def trace(self) -> "tuple[KernelTrace, list]":
        """Trace the kernel function once; returns (trace, params)."""
        trace = KernelTrace(self.simd_width)
        handles = {}
        params: List[Union[BufferHandle, ScalarHandle]] = []
        for pname, spec in self.specs.items():
            if isinstance(spec, Scalar):
                handle: Union[BufferHandle, ScalarHandle] = ScalarHandle(
                    pname, spec.dtype)
            else:
                handle = BufferHandle(trace, pname, spec.dtype, spec.role)
            handles[pname] = handle
            params.append(handle)
        self.fn(trace, **handles)
        if trace._open:
            raise BuildError(
                f"kernel {self.name!r} left a control-flow block open")
        if not trace.writes:
            raise BuildError(
                f"kernel {self.name!r} never stores to a buffer "
                f"(nothing to check)")
        return trace, params

    @property
    def padded_size(self) -> int:
        return -(-self.n // self.simd_width) * self.simd_width

    def program(self):
        """Lower to a finalized ISA Program (without building buffers)."""
        trace, params = self.trace()
        return lower_trace(self.name, trace, params, self.simd_width,
                           guard=self.padded_size != self.n)

    # -- workload assembly ---------------------------------------------------

    def __call__(self, **overrides) -> "Workload":
        from ..kernels.workload import LaunchStep, Workload

        scalars ={name: spec.default for name, spec in self.specs.items()
                   if isinstance(spec, Scalar)}
        seed = self.seed
        for key, value in overrides.items():
            if key == "seed":
                seed = int(value)
            elif key in scalars:
                scalars[key] = (float(value)
                                if self.specs[key].dtype.is_float
                                else int(value))
            else:
                raise BuildError(
                    f"kernel {self.name!r} has no parameter {key!r} "
                    f"(scalars: {sorted(scalars)} and 'seed')")
        trace, params = self.trace()
        padded = self.padded_size
        guard = padded != self.n
        program = lower_trace(self.name, trace, params, self.simd_width,
                              guard=guard)

        rng = np.random.default_rng(seed)
        buffers: Dict[str, np.ndarray] = {}
        for pname, spec in self.specs.items():
            if isinstance(spec, _BufferSpec):
                buffers[pname] = spec.materialize(rng, self.n)
        sinks = sorted(trace.writes)
        # Only written buffers need a pre-launch snapshot; the reference
        # reads the read-only ones from the checked buffers themselves.
        initial = {name: buffers[name].copy() for name in sinks}

        launch_scalars = dict(scalars)
        if guard:
            launch_scalars[GUARD_PARAM] = self.n
        step = LaunchStep(global_size=padded, local_size=self.local_size,
                          scalars=launch_scalars)

        problem_n = self.n if guard else None

        def check(final: Dict[str, np.ndarray]) -> None:
            expected = dict(final)
            expected.update(
                (name, data.copy()) for name, data in initial.items())
            run_reference(trace, expected, scalars, padded, problem_n)
            for name in sinks:
                np.testing.assert_array_equal(
                    final[name], expected[name],
                    err_msg=f"{self.name}: buffer {name!r} deviates from "
                            f"the traced reference")

        category = self.category or (
            "divergent" if trace.is_divergent() else "coherent")
        return Workload(
            name=self.name,
            program=program,
            buffers=buffers,
            steps=[step],
            check=check,
            category=category,
            description=self.description,
            frontend="dsl",
        )


def kernel(n: int = 256, simd_width: int = 16, seed: int = 2013,
           name: Optional[str] = None, category: Optional[str] = None,
           description: str = "", local_size: Optional[int] = None):
    """Decorator turning a traced Python function into a workload factory."""

    def decorate(fn: Callable) -> DslKernel:
        return DslKernel(fn, n=n, simd_width=simd_width, seed=seed,
                         name=name, category=category,
                         description=description, local_size=local_size)

    return decorate
