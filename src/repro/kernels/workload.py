"""Workload abstraction: a kernel plus its data, launches, and checker.

A :class:`Workload` packages everything needed to run one benchmark from
the paper's Table 1 on the simulator: the compiled program, input/output
buffers, one or more launch steps (iterative algorithms like BFS launch
once per level, with the host inspecting a flag buffer in between), and
a correctness check against a host reference.  :func:`run_workload`
executes the whole thing under a given GPU configuration and returns the
merged measurements.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from ..errors import JobTimeoutError, VerificationError
from ..gpu.config import GpuConfig
from ..gpu.results import KernelRunResult, merge_results
from ..gpu.simulator import GpuSimulator
from ..isa.program import Program


@dataclass
class LaunchStep:
    """One kernel launch within a workload."""

    global_size: int
    local_size: Optional[int] = None
    scalars: Dict[str, float] = field(default_factory=dict)


#: Either a fixed launch list, or a host loop: called with (buffers,
#: step_index), returning the next LaunchStep or None to stop.
StepSource = Union[List[LaunchStep], Callable[[Dict[str, np.ndarray], int], Optional[LaunchStep]]]


@dataclass
class Workload:
    """A runnable benchmark: program + data + launches + reference check."""

    name: str
    program: Program
    buffers: Dict[str, np.ndarray]
    steps: StepSource
    check: Optional[Callable[[Dict[str, np.ndarray]], None]] = None
    category: str = "divergent"  # paper's coherent/divergent classification
    description: str = ""
    max_steps: int = 10_000
    #: False for workloads whose execution masks legitimately depend on
    #: simulation timing — e.g. level-synchronous BFS, where threads of
    #: one launch race (benignly) on the levels array, so which lanes see
    #: a neighbour as "unvisited" varies with the policy's cycle
    #: interleaving.  ``repro verify`` still requires bit-identical final
    #: buffers and instruction counts for such workloads, but not
    #: identical per-instruction mask statistics.
    mask_deterministic: bool = True
    #: "dsl" when the program was lowered from a :mod:`repro.dsl`
    #: definition (whose checker is the traced reference), "asm" when it
    #: was assembled by hand with a KernelBuilder.
    frontend: str = "asm"

    def iter_steps(self) -> Iterator[LaunchStep]:
        """Yield launch steps, consulting the host loop if dynamic."""
        if callable(self.steps):
            for index in range(self.max_steps):
                step = self.steps(self.buffers, index)
                if step is None:
                    return
                yield step
            raise RuntimeError(
                f"workload {self.name!r} exceeded max_steps={self.max_steps}"
            )
        else:
            yield from self.steps

    def verify(self) -> None:
        """Run the reference check (raises AssertionError on mismatch)."""
        if self.check is not None:
            self.check(self.buffers)


def digest_buffers(buffers: Dict[str, np.ndarray]) -> str:
    """Deterministic SHA-256 digest of a workload's buffer contents.

    Covers every buffer's name, dtype, shape, and raw bytes (in sorted
    name order), so two simulations produced bit-identical data iff
    their digests match.  ``repro verify`` compares this across
    compaction policies to certify functional equivalence.
    """
    digest = hashlib.sha256()
    for name in sorted(buffers):
        array = np.ascontiguousarray(buffers[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def run_workload(
    workload: Workload,
    config: Optional[GpuConfig] = None,
    verify: bool = True,
    host_seconds: Optional[float] = None,
    hostprof=None,
    trace_sink: Optional[List] = None,
    memo=None,
) -> KernelRunResult:
    """Simulate every launch step of *workload* under *config*.

    Returns the merged :class:`KernelRunResult`; when *verify* is True
    the workload's host reference check runs afterwards, so a passing
    run certifies functional correctness as well as timing.  A failing
    check raises :class:`~repro.errors.VerificationError`.

    *host_seconds* caps the whole workload's wall-clock time: the cycle
    loop and the gaps between launch steps check the deadline and raise
    :class:`~repro.errors.JobTimeoutError` once it passes.  (Host code
    that blocks without returning — a sleeping step source — can only be
    interrupted from outside the process; the runner's pool enforces a
    grace deadline for that case.)

    *hostprof* optionally attaches a
    :class:`~repro.telemetry.hostprof.HostProfiler` for exact per-opcode
    host-time accounting inside the EUs.

    *trace_sink*, when a list, collects every launch step's issued ALU
    instructions as :class:`~repro.trace.format.TraceEvent` records (the
    paper's instrumented functional model), which is how ``repro
    verify`` cross-checks the simulator against the trace profiler.

    *memo*, a :class:`~repro.eu.batch.FunctionalMemo`, is handed to every
    launch so runs of the same workload under different policies share
    the fast engine's functional passes (see :meth:`GpuSimulator.run`).
    """
    deadline = (time.monotonic() + host_seconds
                if host_seconds is not None else None)
    sim = GpuSimulator(config if config is not None else GpuConfig(),
                       wall_deadline=deadline, hostprof=hostprof)
    results = []
    for step in workload.iter_steps():
        if deadline is not None and time.monotonic() > deadline:
            raise JobTimeoutError(
                f"workload {workload.name!r} exceeded its {host_seconds:g}s "
                f"wall-clock budget after {len(results)} launch step(s)"
            )
        results.append(
            sim.run(
                workload.program,
                step.global_size,
                step.local_size,
                buffers=workload.buffers,
                scalars=step.scalars,
                trace_sink=trace_sink,
                memo=memo,
            )
        )
    if not results:
        raise RuntimeError(f"workload {workload.name!r} produced no launches")
    if verify:
        try:
            workload.verify()
        except VerificationError:
            raise
        except AssertionError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise VerificationError(
                f"workload {workload.name!r} failed its host reference "
                f"check{detail}"
            ) from exc
    merged = merge_results(results)
    merged.buffers_digest = digest_buffers(workload.buffers)
    return merged


def run_workload_all_policies(workload_factory, config: Optional[GpuConfig] = None,
                              policies=None, runner=None) -> Dict[str, KernelRunResult]:
    """Run fresh instances of a workload under several compaction policies.

    *workload_factory* is either a registry name (preferred — such jobs
    are cacheable and can run in worker processes) or a zero-argument
    factory called once per policy, so each timed run starts from
    pristine input data (outputs are written in place).  All policy runs
    go through the shared :mod:`repro.runner` engine as one batch.
    """
    from ..core.policy import CompactionPolicy
    from .. import runner as runner_mod

    engine = runner if runner is not None else runner_mod.default_runner()
    base = config if config is not None else GpuConfig()
    if policies is None:
        policies = (CompactionPolicy.IVB, CompactionPolicy.BCC, CompactionPolicy.SCC)
    jobs: Dict[CompactionPolicy, runner_mod.Job] = {}
    for policy in policies:
        if isinstance(workload_factory, str):
            jobs[policy] = runner_mod.Job(workload_factory,
                                          base.with_policy(policy))
        else:
            jobs[policy] = runner_mod.Job(
                getattr(workload_factory, "__name__", "inline"),
                base.with_policy(policy), factory=workload_factory)
    results = engine.run(jobs.values())
    return {policy.value: results[job] for policy, job in jobs.items()}


# -- helpers for DSL-defined kernels ----------------------------------------
# The kernel's seed makes the rng that ``init=`` callables draw from, in
# buffer-argument order.


#: An ``init=`` callable: (rng, size) -> the buffer's contents.
BufferInit = Callable[[np.random.Generator, int], np.ndarray]


def normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard-normal samples."""
    return rng.standard_normal(size)


def uniform(low: float, high: float) -> BufferInit:
    """Uniform samples on [low, high)."""
    return lambda rng, size: rng.uniform(low, high, size)


def given(data: np.ndarray) -> BufferInit:
    """A precomputed array: for data drawn in another order than the
    kernel's buffer arguments, or derived from several draws."""
    return lambda _rng, _size: data


def assign(k, var, value):
    """*var* set to *value*, or a new DSL variable holding it when *var*
    is None: an unrolled loop's per-iteration value then keeps one
    register and costs one instruction per iteration."""
    if var is None:
        return k.var(value)
    var.set(value)
    return var


def grid_coords(k, dim):
    """DSL variables (row, col) of work-item gid in a row-major grid
    *dim* wide."""
    row = k.var(k.gid / dim)
    tmp = k.var(row * dim)
    return row, k.var(k.gid - tmp)
