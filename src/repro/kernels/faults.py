"""Fault-injection workloads: controlled failures for the test harness.

Production-scale regeneration campaigns die in three characteristic
ways: a kernel hangs (scheduling bug, runaway loop), a worker process
crashes (OOM kill, segfaulting dependency), or a worker simply stalls in
host code.  These registry workloads reproduce each failure mode *on
demand* so the runner's watchdog, retry, degradation, and resume
machinery can be exercised deterministically by pytest and CI.

They are deliberately second-class citizens of the registry: excluded
from every workload group (``all``/``divergent``/...), excluded from the
default efficiency studies, and never cached (the runner refuses to
cache any workload whose name carries the :data:`FAULT_PREFIX`), so a
fault injection can never poison real experiment results.

* :func:`spin_forever` — a kernel whose loop never exits; trips the
  simulator's cycle budget (:class:`~repro.errors.DeadlockError`) or
  wall-clock budget (:class:`~repro.errors.JobTimeoutError`).
* :func:`sleep_then_run` — host-side ``time.sleep`` before the launch;
  models a worker hung *outside* the simulator loop, which only the
  runner's parent-side deadline can kill.
* :func:`crash_once` — raises or hard-exits in the worker; with a
  *marker* file the fault fires exactly once, so retries and serial
  degradation can be shown to recover.
* :func:`count_executions` — appends one line to a *counter* file per
  execution (optionally sleeping first); because fault workloads are
  never cached, the line count is an exact execution count, which is
  how the serve-layer dedup tests prove "two identical submissions,
  one simulation".
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

import numpy as np

from ..isa.builder import KernelBuilder
from ..isa.registers import FlagRef
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload

#: Registry-name prefix identifying fault-injection workloads.  The
#: runner treats any job whose workload name starts with this as
#: uncacheable, and the CLI's workload groups skip them.
FAULT_PREFIX = "fault_"


def _copy_kernel(name: str, simd_width: int):
    """A trivial y = 2x kernel: the benign payload of the fault workloads."""
    b = KernelBuilder(name, simd_width)
    gid = b.global_id()
    sx, sy = b.surface_arg("x"), b.surface_arg("y")
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    x = b.vreg(DType.F32)
    b.load(x, addr, sx)
    b.add(x, x, x)
    b.store(x, addr, sy)
    return b.finish()


def _copy_buffers(n: int):
    rng = np.random.default_rng(1237)
    x = rng.uniform(-1.0, 1.0, n).astype(np.float32)
    y = np.zeros(n, dtype=np.float32)

    def check(buffers):
        np.testing.assert_allclose(buffers["y"], x + x, rtol=1e-6)

    return {"x": x, "y": y}, check


def spin_forever(n: int = 8, simd_width: int = 8) -> Workload:
    """A kernel that loops forever: the watchdog's canonical prey.

    Run it under a small ``GpuConfig.max_cycles`` (or the CLI's
    ``--max-cycles``) for a fast :class:`~repro.errors.DeadlockError`,
    or under a wall-clock budget for a
    :class:`~repro.errors.JobTimeoutError`.
    """
    b = KernelBuilder("fault_spin", simd_width)
    gid = b.global_id()
    sy = b.surface_arg("y")
    it = b.vreg(DType.I32)
    b.mov(it, 0)
    b.do_()
    b.add(it, it, 1)
    fl = b.cmp(CmpOp.GE, it, 0, flag=FlagRef(1))  # always true: never exits
    b.while_(fl)
    addr = b.vreg(DType.I32)  # unreachable epilogue
    b.shl(addr, gid, 2)
    b.store(it, addr, sy)
    program = b.finish()

    return Workload(
        name="fault_spin",
        program=program,
        buffers={"y": np.zeros(n, dtype=np.int32)},
        steps=[LaunchStep(global_size=n)],
        check=None,
        category="fault",
        description="infinite loop; exercises the deadlock/timeout watchdog",
    )


def sleep_then_run(seconds: float = 5.0, n: int = 64,
                   simd_width: int = 8) -> Workload:
    """Sleep *seconds* in host code, then run a trivial kernel.

    The sleep happens inside the step source, i.e. in the worker process
    but outside the simulator's cycle loop — exactly the kind of hang
    the in-process watchdog cannot see and the runner's parent-side
    grace deadline exists for.
    """
    buffers, check = _copy_buffers(n)

    def steps(_buffers, index: int) -> Optional[LaunchStep]:
        if index == 0:
            time.sleep(seconds)
            return LaunchStep(global_size=n)
        return None

    return Workload(
        name="fault_sleep",
        program=_copy_kernel("fault_sleep", simd_width),
        buffers=buffers,
        steps=steps,
        check=check,
        category="fault",
        description=f"host-side sleep({seconds:g}) before launching",
    )


def crash_once(marker: str = "", mode: Optional[str] = None, n: int = 64,
               simd_width: int = 8) -> Workload:
    """Crash the executing worker, optionally only on the first attempt.

    Args:
        marker: path to a sentinel file.  When given, the fault fires
            only if the file does not exist yet (and creates it first),
            so the *next* attempt — a pool retry, or a one-worker round
            after a pool breakdown — succeeds.  An empty marker means
            "always crash".
        mode: ``"raise"`` raises ``RuntimeError`` (an unclassified
            worker failure, retried as transient); ``"exit"`` calls
            ``os._exit`` to kill the worker outright, breaking the
            process pool.  ``None`` (the default) defers to
            ``$REPRO_FAULT_MODE``, falling back to ``"raise"``.

    Callers that cannot pass factory parameters (``repro sweep`` grids,
    CI scripts) can set ``$REPRO_FAULT_MARKER`` / ``$REPRO_FAULT_MODE``
    instead; explicit arguments win over the environment.
    """
    marker = marker or os.environ.get("REPRO_FAULT_MARKER", "")
    mode = mode or os.environ.get("REPRO_FAULT_MODE", "raise")
    if mode not in ("raise", "exit"):
        raise ValueError(f"unknown crash mode {mode!r}")
    buffers, check = _copy_buffers(n)

    def steps(_buffers, index: int) -> Optional[LaunchStep]:
        if index == 0:
            armed = not marker or not Path(marker).exists()
            if armed:
                if marker:
                    Path(marker).touch()
                if mode == "exit":
                    os._exit(23)
                raise RuntimeError(
                    "injected worker crash (fault_crash, mode=raise)")
            return LaunchStep(global_size=n)
        return None

    return Workload(
        name="fault_crash",
        program=_copy_kernel("fault_crash", simd_width),
        buffers=buffers,
        steps=steps,
        check=check,
        category="fault",
        description=f"crashes the worker ({mode}); oneshot when marker given",
    )


def count_executions(counter: str = "", sleep: float = 0.0, n: int = 64,
                     simd_width: int = 8) -> Workload:
    """Append one line to *counter* per execution, then run the payload.

    Args:
        counter: path of the tally file; each execution durably appends
            one ``<pid>\\n`` line before launching.  Fault workloads are
            never cached, so the number of lines equals the number of
            actual simulations — the ground truth the in-flight dedup
            tests assert against.  Empty defers to
            ``$REPRO_FAULT_COUNTER`` (and counts nothing if that is
            unset too).
        sleep: optional host-side delay before the launch, to hold the
            job in flight long enough for a concurrent duplicate
            submission to arrive.
    """
    counter = counter or os.environ.get("REPRO_FAULT_COUNTER", "")
    buffers, check = _copy_buffers(n)

    def steps(_buffers, index: int) -> Optional[LaunchStep]:
        if index == 0:
            if counter:
                with open(counter, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            if sleep:
                time.sleep(sleep)
            return LaunchStep(global_size=n)
        return None

    return Workload(
        name="fault_count",
        program=_copy_kernel("fault_count", simd_width),
        buffers=buffers,
        steps=steps,
        check=check,
        category="fault",
        description="tallies executions in a file; proves dedup/retry counts",
    )
