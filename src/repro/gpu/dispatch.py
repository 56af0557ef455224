"""Thread dispatch: NDRange -> workgroups -> EU threads.

Implements the OpenCL-style execution model the paper assumes (Section
2.3): a 1-D NDRange is split into workgroups; each workgroup is placed
whole onto one EU (it shares SLM and a barrier), sliced into hardware
threads of the kernel's SIMD width.  The dispatcher round-robins pending
workgroups onto EUs with enough free thread slots, writing each thread's
dispatch payload (global/local ids, scalar arguments, partial-thread
dispatch mask) into its fresh GRF.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..eu.eu import ExecutionUnit
from ..eu.grf import operand_plan
from ..eu.thread import EUThread, ThreadState
from ..isa.program import ParamKind, Program
from ..isa.registers import RegRef
from ..isa.types import DType
from ..memory.slm import SlmAllocation, SlmTiming


class WorkgroupInstance:
    """A dispatched workgroup: threads, SLM, and barrier state."""

    def __init__(self, wg_id: int, surfaces: Sequence[np.ndarray],
                 slm: Optional[SlmAllocation], slm_timing: SlmTiming) -> None:
        self.wg_id = wg_id
        self.surfaces = list(surfaces)
        self.slm = slm
        self.slm_timing = slm_timing
        self.threads: List[EUThread] = []
        self._barrier_arrived: List[EUThread] = []
        self.completed_threads = 0

    @property
    def done(self) -> bool:
        return self.threads and self.completed_threads == len(self.threads)

    def live_threads(self) -> int:
        return sum(1 for t in self.threads if t.state is not ThreadState.DONE)

    def arrive_barrier(self, thread: EUThread, now: int, release_latency: int) -> None:
        """A thread reached a barrier; release everyone once all arrive."""
        self._barrier_arrived.append(thread)
        self._maybe_release(now, release_latency)

    def thread_done(self, now: int) -> None:
        """A thread executed EOT (may unblock a barrier the rest wait at)."""
        self.completed_threads += 1
        self._maybe_release(now, release_latency=1)

    def _maybe_release(self, now: int, release_latency: int) -> None:
        if self._barrier_arrived and len(self._barrier_arrived) == self.live_threads():
            for waiter in self._barrier_arrived:
                waiter.state = ThreadState.ACTIVE
                waiter.stall_until = now + release_latency
            self._barrier_arrived.clear()


class Launch:
    """One kernel launch: pending workgroups plus live instances."""

    def __init__(
        self,
        program: Program,
        global_size: int,
        local_size: Optional[int],
        surfaces: Sequence[np.ndarray],
        scalars: Dict[str, float],
        config,
        telemetry=None,
    ) -> None:
        if not program.finalized:
            raise ValueError(f"program {program.name!r} was not finalized")
        if global_size < 1:
            raise ValueError(f"global_size must be positive, got {global_size}")
        width = program.simd_width
        if local_size is None:
            local_size = width * config.threads_per_eu
        if local_size % width != 0:
            raise ValueError(
                f"local_size {local_size} must be a multiple of SIMD width {width}"
            )
        threads_per_wg = local_size // width
        if threads_per_wg > config.threads_per_eu:
            raise ValueError(
                f"workgroup needs {threads_per_wg} threads but an EU has "
                f"{config.threads_per_eu} slots"
            )
        self.program = program
        self.global_size = global_size
        self.local_size = local_size
        self.threads_per_wg = threads_per_wg
        self.surfaces = list(surfaces)
        self.scalars = dict(scalars)
        self.config = config
        self.num_workgroups = -(-global_size // local_size)
        self.next_wg = 0
        self.instances: List[WorkgroupInstance] = []
        self._thread_counter = 0
        #: Scan frontier for :attr:`done`: instances below this index are
        #: known complete.  A workgroup's ``done`` is monotone, so the
        #: frontier only moves forward — the per-cycle poll from the
        #: simulator loop is amortized O(1) instead of O(instances).
        self._done_frontier = 0
        #: Optional run-level TelemetryCollector (None when off).
        self.telemetry = telemetry
        #: Built here, so a missing scalar argument fails the launch
        #: before anything is dispatched.
        self.payload = DispatchPayload(program, self.scalars)

    @property
    def all_dispatched(self) -> bool:
        return self.next_wg >= self.num_workgroups

    @property
    def pending_workgroups(self) -> int:
        """Workgroups not yet placed on any EU (watchdog diagnostics)."""
        return self.num_workgroups - self.next_wg

    @property
    def live_workgroups(self) -> int:
        """Dispatched workgroups that have not finished yet."""
        return sum(1 for wg in self.instances if not wg.done)

    @property
    def done(self) -> bool:
        if self.next_wg < self.num_workgroups:
            return False
        instances = self.instances
        count = len(instances)
        i = self._done_frontier
        while i < count and instances[i].done:
            i += 1
        self._done_frontier = i
        return i == count

    def dispatch(self, eus: Sequence[ExecutionUnit], now: int) -> int:
        """Place as many pending workgroups as EU slots allow.

        Returns the number of workgroups dispatched this call.
        """
        if self.next_wg >= self.num_workgroups:
            return 0
        placed = 0
        threads_per_wg = self.threads_per_wg
        num_workgroups = self.num_workgroups
        for eu in eus:
            # ``eu._free`` is the free_slots() counter, read directly on
            # this per-cycle path.
            while (
                self.next_wg < num_workgroups
                and eu._free >= threads_per_wg
            ):
                instance = self._materialize(self.next_wg, now)
                self.next_wg += 1
                self.instances.append(instance)
                for thread in instance.threads:
                    eu.add_thread(thread)
                placed += 1
                if self.telemetry is not None:
                    self.telemetry.counters.incr("dispatch.workgroups")
                    self.telemetry.instant(
                        "gpu/dispatch", "wg_dispatch", now,
                        {"wg": instance.wg_id, "eu": eu.eu_id,
                         "threads": len(instance.threads)})
        return placed

    def _materialize(self, wg_id: int, now: int) -> WorkgroupInstance:
        config = self.config
        program = self.program
        instance = WorkgroupInstance(wg_id, self.surfaces,
                                     *workgroup_slm(program, config))
        for global_base, local_base, dispatch_mask in workgroup_threads(
                wg_id, self.global_size, self.local_size, program.simd_width):
            thread = self._make_thread(
                self._thread_counter, dispatch_mask, instance,
                now + config.dispatch_latency,
            )
            self._thread_counter += 1
            self._write_payload(thread, global_base, local_base)
            instance.threads.append(thread)
        return instance

    def _make_thread(self, thread_id: int, dispatch_mask: int,
                     instance: WorkgroupInstance, start_cycle: int) -> EUThread:
        """Thread-materialization hook (the replay launch overrides it)."""
        return EUThread(
            thread_id=thread_id,
            program=self.program,
            dispatch_mask=dispatch_mask,
            workgroup=instance,
            start_cycle=start_cycle,
        )

    def _write_payload(self, thread: EUThread, global_base: int,
                       local_base: int) -> None:
        self.payload.write(thread.grf.storage, global_base, local_base)


def workgroup_threads(wg_id: int, global_size: int, local_size: int,
                      width: int) -> Iterator[Tuple[int, int, int]]:
    """The hardware threads of workgroup *wg_id*, in thread-id order.

    Yields ``(global_base, local_base, dispatch_mask)`` per thread: the
    workgroup's work-items sliced into *width*-lane threads, the last one
    partial when the NDRange ends inside it.  The one thread geometry of
    a launch: :meth:`Launch._materialize` numbers the threads it yields
    in this order, and the fast engine's functional pass lays out its
    rows the same way, so trace index *i* is the thread with
    ``thread_id == i``.
    """
    wg_base = wg_id * local_size
    wg_items = min(local_size, global_size - wg_base)
    for local_base in range(0, wg_items, width):
        lanes_valid = min(width, wg_items - local_base)
        yield wg_base + local_base, local_base, (1 << lanes_valid) - 1


def workgroup_slm(program: Program, config) -> Tuple[Optional[SlmAllocation],
                                                     SlmTiming]:
    """A new workgroup's shared local memory: its allocation (None when
    the kernel uses none) and its bank-timing model."""
    slm = SlmAllocation(program.slm_bytes) if program.slm_bytes else None
    return slm, SlmTiming(config.slm_latency, config.slm_banks)


class DispatchPayload:
    """The dispatch payload of one launch, as GRF slot bounds.

    ``gid``/``lid`` are the :func:`~repro.eu.grf.operand_plan` bounds of
    the global- and local-id registers (None when the kernel reads
    neither); ``constants`` pairs each scalar argument's bounds with its
    value.  Building it raises the one ``ValueError`` for a missing
    scalar argument.
    """

    def __init__(self, program: Program, scalars: Dict[str, float]) -> None:
        width = program.simd_width
        self.lanes = np.arange(width, dtype=np.int32)
        self.gid = self.lid = None
        if program.gid_reg is not None:
            self.gid = operand_plan(RegRef(program.gid_reg, DType.I32), width)
        if program.lid_reg is not None:
            self.lid = operand_plan(RegRef(program.lid_reg, DType.I32), width)
        self.constants = []
        for param in program.scalar_params():
            if param.name not in scalars:
                raise ValueError(
                    f"kernel {program.name!r} missing scalar argument {param.name!r}"
                )
            dtype = DType.F32 if param.kind is ParamKind.SCALAR_F32 else DType.I32
            self.constants.append((operand_plan(RegRef(param.reg, dtype), width),
                                   scalars[param.name]))

    def write(self, storage: np.ndarray, global_base, local_base) -> None:
        """Write the payload into GRF *storage*: one thread's slots with
        integer bases, or a ``(threads, slots)`` block with
        ``(threads, 1)`` base columns."""
        for plan, base in ((self.gid, global_base), (self.lid, local_base)):
            if plan is not None:
                lo, hi, view = plan
                storage[..., lo:hi].view(view)[...] = self.lanes + base
        for (lo, hi, view), value in self.constants:
            storage[..., lo:hi].view(view)[...] = value


def bind_surfaces(program: Program, buffers: Dict[str, np.ndarray]) -> List[np.ndarray]:
    """Resolve named buffers to the program's binding-table order.

    Each buffer is exposed to the machine as its raw byte image; writes
    through the simulator mutate the caller's array in place (device and
    host memory are unified, as on the integrated GPU studied).
    """
    surfaces = []
    for param in program.surface_params():
        if param.name not in buffers:
            raise ValueError(
                f"kernel {program.name!r} missing buffer argument {param.name!r}"
            )
        array = buffers[param.name]
        if not isinstance(array, np.ndarray):
            raise TypeError(f"buffer {param.name!r} must be a numpy array")
        if not array.flags["C_CONTIGUOUS"]:
            raise ValueError(f"buffer {param.name!r} must be C-contiguous")
        surfaces.append(array.reshape(-1).view(np.uint8))
    return surfaces
