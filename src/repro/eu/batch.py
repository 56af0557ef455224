"""Batched functional execution engine (phase one of the fast core).

The paper's methodology (Section 5.1) runs an instrumented *functional*
model to collect per-instruction mask traces, then feeds those traces to
timing models.  ``GpuConfig(engine="fast")`` adopts the same split: this
module interprets a whole kernel launch functionally with **batched
numpy** — one vectorized kernel per opcode across every thread sitting
at the same program counter — and records, per thread, a compact issue
trace that :mod:`repro.eu.replay` then pushes through the unchanged
cycle-accurate timing model.

Why this is sound: the timing model (arbiter, pipes, scoreboard, memory
hierarchy, compaction policies) consumes only each instruction's
``(pc, exec_mask)`` plus the memory lines it touches — never register
values.  The cross-policy verification harness already pins that
architectural results are interleaving-independent (identical digests
across RAW/IVB/BCC/SCC, whose timings interleave threads differently),
so the canonical lockstep interleaving used here (all threads at the
smallest pc first, ascending thread id within a wavefront) produces the
same buffers, flags, and per-thread mask streams as the interleaved
interpreter.

The definitions are the interpreter's, not copies.  Thread geometry and
the dispatch payload come from :mod:`repro.gpu.dispatch`
(:func:`~repro.gpu.dispatch.workgroup_threads`,
:class:`~repro.gpu.dispatch.DispatchPayload`); operands, formulas and
CMP comparisons from each instruction's cached plans
(:func:`repro.eu.interp.alu_plan`, :func:`repro.eu.interp.mem_plan`);
control flow from each thread's :meth:`MaskStack.control`, predicates
from :func:`repro.eu.maskstack.pred_mask`, offset validation from
:func:`repro.eu.interp._checked_indices` and SLM messages from
:func:`repro.eu.interp.run_slm`.  What is batched here is state, and
only shape-specific code stays: the register file of every thread in
one ``(threads, slots)`` array, masked writes, CMP flag packing, SEL,
per-thread cache-line sets and the barrier release.

Trace schema — one entry per issued instruction, ``(pc, mask, aux)``:

* ALU:      ``mask`` is the final execution mask (for SEL: the current
  mask, matching the stats convention); ``aux`` is ``None``.
* CTRL:     ``mask`` is the *post-instruction* mask-stack population
  (what telemetry records); ``aux`` is ``None``.
* BARRIER:  ``mask`` is the current mask; ``aux`` is ``None``.
* SLM:      ``mask`` is the execution mask; ``aux`` is the bank-conflict
  cycle count, or ``None`` when the message was suppressed (mask 0).
* global:   ``mask`` is the execution mask; ``aux`` is the sorted tuple
  of distinct cache-line numbers touched (``None`` when suppressed), so
  replay drives :class:`~repro.memory.hierarchy.MemoryHierarchy` with
  exactly the lines the interpreter would have requested.
"""

from __future__ import annotations

import copy
import hashlib
import time
from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.policy import CompactionPolicy
from ..core.stats import CompactionStats
from ..errors import DeadlockError, JobTimeoutError
from ..gpu.dispatch import DispatchPayload, workgroup_slm, workgroup_threads
from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode, Pipe
from ..isa.program import Program
from ..memory.cache import LINE_BYTES
from .grf import NUM_SLOTS
from .interp import _CMP, _SEL, _checked_indices, alu_plan, mem_plan, run_slm
from .maskstack import MaskStack, pred_mask

__all__ = ["FunctionalMemo", "run_functional"]

#: Per-thread functional status codes (plain ints for numpy storage).
_ACTIVE, _AT_BARRIER, _DONE = 0, 1, 2

#: Wall-clock deadline polling period, in wavefronts.
_WALL_CHECK_PERIOD = 64

TraceEntry = Tuple[int, int, object]


def run_functional(
    program: Program,
    global_size: int,
    local_size: int,
    surfaces: List[np.ndarray],
    scalars: Dict[str, float],
    config,
    wall_deadline: Optional[float] = None,
) -> List[List[TraceEntry]]:
    """Execute a launch functionally; return one issue trace per thread.

    Rows are laid out by :func:`repro.gpu.dispatch.workgroup_threads`,
    the enumeration :meth:`repro.gpu.dispatch.Launch._materialize`
    numbers its threads by, so trace index *i* belongs to the thread the
    replay launch materializes with ``thread_id == i``.  A missing scalar
    argument raises :class:`~repro.gpu.dispatch.DispatchPayload`'s
    ``ValueError``.  Buffers behind *surfaces* are mutated in place,
    exactly as the interleaved interpreter would.  The pass runs inside
    one ``np.errstate(all="ignore")``: IEEE results, as the hardware
    gives, without numpy's floating-point warnings.
    """
    engine = _BatchEngine(
        program, global_size, local_size, surfaces, scalars, config,
        wall_deadline,
    )
    with np.errstate(all="ignore"):
        return engine.run()


class FunctionalMemo:
    """Functional passes shared by runs that differ only in policy.

    The functional pass never reads ``config.policy``: compaction
    changes timing, not architectural state.  So one pass per launch
    can serve a whole policy group, each member replaying the stored
    traces through its own timing model.  Each entry holds a launch's
    traces (replay only reads them), every surface's post-pass bytes,
    and the :class:`CompactionStats` that ``record_trace_stats`` built
    from the traces (they count cycles for every policy, so they are
    policy-independent too).  Only successful passes are stored.

    The key is content-based (see :meth:`key`), so a launch whose
    program, geometry, scalars, input bytes or non-policy config differ
    simply misses.  ``passes`` and ``reused`` count launches that ran
    the functional pass and launches served from the memo.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, tuple] = {}
        #: id(obj) -> (obj, digest) for programs and configs, so a
        #: multi-launch job digests each once (holding obj pins its id).
        self._digests: Dict[int, Tuple[object, str]] = {}
        self.passes = 0
        self.reused = 0

    def key(self, program: Program, global_size: int, local_size: int,
            surfaces: List[np.ndarray], scalars: Dict[str, float],
            config) -> tuple:
        """Identity of one launch's functional pass, policy excluded: the
        program's assembly text, the geometry, the scalars, a digest of
        every input surface, and the config with its policy pinned."""
        from ..isa.asm import program_to_text
        from ..runner import config_digest

        return (
            self._digest(program, program_to_text),
            global_size,
            local_size,
            tuple(sorted(scalars.items())),
            tuple(hashlib.blake2b(surface).digest() for surface in surfaces),
            self._digest(config, lambda c: config_digest(
                c.with_policy(CompactionPolicy.IVB))),
        )

    def _digest(self, obj, compute) -> str:
        hit = self._digests.get(id(obj))
        if hit is None:
            hit = self._digests[id(obj)] = (obj, compute(obj))
        return hit[1]

    def restore(self, key: tuple, surfaces: List[np.ndarray],
                alu_stats: CompactionStats, simd_stats: CompactionStats
                ) -> Optional[List[List[TraceEntry]]]:
        """Replay a stored pass into *surfaces* and the stats; returns
        its traces, or None when *key* was never stored."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        traces, images, alu, simd = entry
        for surface, image in zip(surfaces, images):
            np.copyto(surface, image)
        alu_stats.merge(alu)
        simd_stats.merge(simd)
        self.reused += 1
        return traces

    def store(self, key: tuple, traces: List[List[TraceEntry]],
              surfaces: List[np.ndarray], alu_stats: CompactionStats,
              simd_stats: CompactionStats) -> None:
        """Keep a successful pass: its traces, the surfaces' post-pass
        bytes, and a snapshot of the stats recorded from the traces."""
        self._entries[key] = (traces, [surface.copy() for surface in surfaces],
                              copy.deepcopy(alu_stats),
                              copy.deepcopy(simd_stats))
        self.passes += 1

    def clear(self) -> None:
        """Drop every stored pass (the counters are kept)."""
        self._entries.clear()
        self._digests.clear()


class _BatchEngine:
    """Vectorized lockstep interpreter over every thread of one launch."""

    def __init__(self, program, global_size, local_size, surfaces, scalars,
                 config, wall_deadline):
        self.program = program
        self.instructions = program.instructions
        self.config = config
        self.surfaces = surfaces
        self.wall_deadline = wall_deadline
        width = program.simd_width

        # -- thread geometry: one row per thread, in thread-id order ------
        num_workgroups = -(-global_size // local_size)
        threads = [(wg_id,) + thread for wg_id in range(num_workgroups)
                   for thread in workgroup_threads(
                       wg_id, global_size, local_size, width)]
        wg_of, global_bases, local_bases, dispatch_masks = zip(*threads)
        n = len(threads)
        self.wg_of = np.asarray(wg_of, dtype=np.int64)

        # -- architectural state ------------------------------------------
        self.storage = np.zeros((n, NUM_SLOTS), dtype=np.uint32)
        self.flags = np.zeros((2, n), dtype=np.uint64)
        self.pc = np.zeros(n, dtype=np.int64)
        self.status = np.zeros(n, dtype=np.int8)
        self.masks = [MaskStack(width, m) for m in dispatch_masks]
        #: Vector mirror of each thread's ``masks[i].current``.
        self.current = np.asarray(dispatch_masks, dtype=np.uint64)
        self.traces: List[List[TraceEntry]] = [[] for _ in range(n)]
        self._lane_shifts = np.arange(width, dtype=np.uint64)
        self._lane_bits = (np.uint64(1) << self._lane_shifts)
        #: Reusable 0..n_threads arange for per-group row indexing.
        self._row_arange = np.arange(n, dtype=np.int64)
        #: Threads of each workgroup (row indices), for barrier release.
        self._wg_rows = [
            np.nonzero(self.wg_of == wg)[0] for wg in range(num_workgroups)
        ]

        #: Each workgroup's ``(allocation, bank timing)``.
        self.slm = [workgroup_slm(program, config)
                    for _ in range(num_workgroups)]

        DispatchPayload(program, scalars).write(
            self.storage, np.asarray(global_bases)[:, None],
            np.asarray(local_bases)[:, None])

    # -- main loop ------------------------------------------------------------

    def run(self) -> List[List[TraceEntry]]:
        status = self.status
        # One wavefront issues at most one instruction per active thread,
        # and the interleaved core issues at most one instruction per
        # thread per issue period — so the cycle budget translates to a
        # wavefront budget without loosening the deadlock net.
        max_wavefronts = self.config.max_cycles // max(1, self.config.issue_period) + 1
        wavefront = 0
        while True:
            active = np.nonzero(status == _ACTIVE)[0]
            if active.size == 0:
                if bool(np.all(status == _DONE)):
                    return self.traces
                raise DeadlockError(
                    f"kernel {self.program.name!r} stalled in the functional "
                    f"pass: every live thread is waiting at a barrier"
                )
            pcs = self.pc[active]
            order = np.argsort(pcs, kind="stable")
            rows_sorted = active[order]
            pcs_sorted = pcs[order]
            start = 0
            total = rows_sorted.size
            while start < total:
                pc = int(pcs_sorted[start])
                end = int(np.searchsorted(pcs_sorted, pc, side="right"))
                self._exec_group(pc, rows_sorted[start:end])
                start = end
            self._release_barriers()
            wavefront += 1
            if wavefront > max_wavefronts:
                raise DeadlockError(
                    f"kernel {self.program.name!r} exceeded "
                    f"max_cycles={self.config.max_cycles} (functional pass)"
                )
            if (self.wall_deadline is not None
                    and wavefront % _WALL_CHECK_PERIOD == 0
                    and time.monotonic() > self.wall_deadline):
                raise JobTimeoutError(
                    f"kernel {self.program.name!r} exceeded its wall-clock "
                    f"budget in the functional pass (wavefront {wavefront})"
                )

    def _release_barriers(self) -> None:
        status = self.status
        waiting = np.nonzero(status == _AT_BARRIER)[0]
        if waiting.size == 0:
            return
        for wg in np.unique(self.wg_of[waiting]):
            rows = self._wg_rows[wg]
            st = status[rows]
            # Same release rule as WorkgroupInstance._maybe_release: the
            # barrier opens once every non-retired thread has arrived.
            if not np.any(st == _ACTIVE):
                status[rows[st == _AT_BARRIER]] = _ACTIVE

    # -- per-group execution --------------------------------------------------

    def _exec_group(self, pc: int, rows: np.ndarray) -> None:
        inst = self.instructions[pc]
        op = inst.opcode
        preds = pred_mask(inst, self.flags)
        if preds is not None:
            preds = preds[rows]
        if op.pipe is Pipe.CTRL:
            self._exec_ctrl(pc, inst, rows, preds)
            return
        if op is Opcode.BARRIER:
            self._exec_barrier(pc, inst, rows)
            return
        exec_masks = self.current[rows]
        selectors = None
        if op is Opcode.SEL:
            # The predicate is the per-lane selector, not an execution
            # mask.
            selectors = preds
        elif preds is not None:
            exec_masks &= preds
        if op.is_memory:
            self._exec_memory(pc, inst, rows, exec_masks)
        else:
            self._exec_alu(pc, inst, rows, exec_masks, selectors)

    # -- control flow ---------------------------------------------------------

    def _exec_ctrl(self, pc: int, inst: Instruction, rows: np.ndarray,
                   preds: Optional[np.ndarray]) -> None:
        instructions = self.instructions
        eot = inst.opcode is Opcode.EOT
        preds = [None] * rows.size if preds is None else preds.tolist()
        for row, pred in zip(rows.tolist(), preds):
            masks = self.masks[row]
            if eot:
                self.traces[row].append((pc, masks.current, None))
                self.status[row] = _DONE
                continue
            next_pc = masks.control(inst, pred, instructions)
            # Post-instruction mask population, as telemetry records it.
            self.traces[row].append((pc, masks.current, None))
            self.current[row] = masks.current
            self.pc[row] = pc + 1 if next_pc is None else next_pc

    def _exec_barrier(self, pc: int, inst: Instruction, rows: np.ndarray) -> None:
        for row in rows:
            self.traces[int(row)].append((pc, int(self.current[row]), None))
        self.pc[rows] += 1
        self.status[rows] = _AT_BARRIER

    # -- ALU ------------------------------------------------------------------

    def _exec_alu(self, pc: int, inst: Instruction, rows: np.ndarray,
                  exec_masks: np.ndarray,
                  selectors: Optional[np.ndarray]) -> None:
        kind, sources, fn, dtype, dst, width = alu_plan(inst)
        # A register source is a (rows, lanes) block, an immediate the
        # plan's read-only (lanes,) row, which broadcasts across them.
        srcs = []
        for src in sources:
            if src.__class__ is tuple:
                lo, hi, view, convert = src
                src = self.storage[rows, lo:hi].view(view)
                if convert is not None:
                    src = src.astype(convert)
            srcs.append(src)
        if kind == _CMP:
            taken = (np.asarray(fn(srcs[0], srcs[1]), dtype=bool)
                     & self._enabled(exec_masks, width))
            bits = (taken * self._lane_bits[None, :width]).sum(
                axis=1, dtype=np.uint64)
            self.flags[dst][rows] = (self.flags[dst][rows] & ~exec_masks) | bits
        else:
            if kind == _SEL:
                result = np.where(self._enabled(selectors, width),
                                  srcs[0], srcs[1])
            else:
                result = np.asarray(fn(srcs, dtype), dtype=dtype.np_dtype)
            self._write(dst, rows, width, result, exec_masks)

        traces = self.traces
        for row, mask in zip(rows.tolist(), exec_masks.tolist()):
            traces[row].append((pc, mask, None))
        self.pc[rows] += 1

    # -- memory ---------------------------------------------------------------

    def _exec_memory(self, pc: int, inst: Instruction, rows: np.ndarray,
                     exec_masks: np.ndarray) -> None:
        plan = mem_plan(inst)
        if inst.opcode.is_slm:
            self._exec_slm(pc, plan, rows, exec_masks)
        else:
            self._exec_global(pc, plan, rows, exec_masks)
        self.pc[rows] += 1

    def _exec_slm(self, pc, plan, rows, exec_masks) -> None:
        # SLM messages run per thread, in ascending row order, on each
        # row's 1-D slots: the bank model charges each access on its own.
        kernel = self.program.name
        for row, mask in zip(rows.tolist(), exec_masks.tolist()):
            cycles = None
            if mask:
                cycles = run_slm(self.storage[row], plan,
                                 *self.slm[self.wg_of[row]], mask, kernel)
            self.traces[row].append((pc, mask, cycles))

    def _exec_global(self, pc, plan, rows, exec_masks) -> None:
        address, data, dst, dtype, surface_index, width = plan
        size = dtype.size
        surface = self.surfaces[surface_index]
        view = surface.view(dtype.np_dtype)
        enabled = self._enabled(exec_masks, width)
        offsets = self._read(address, rows)
        # The canonical issue order makes the shared check's "first
        # offending lane" the lowest (thread, lane) pair.
        idx, unsigned = _checked_indices(
            surface, offsets, enabled, dtype,
            "writes" if data is not None else "reads")
        all_enabled = bool(enabled.all())
        if data is None:
            idx_safe = idx if all_enabled else np.where(enabled, idx, 0)
            self._write(dst, rows, width, view[idx_safe], exec_masks)
        else:
            values = self._read(data, rows)
            if all_enabled:
                view[idx.ravel()] = values.ravel()
            else:
                flat_enabled = enabled.ravel()
                # Row-major flatten: within a row the highest lane wins
                # (the hardware's quad write-back order); across rows
                # the highest thread wins, matching the canonical
                # ascending issue order.
                view[idx.ravel()[flat_enabled]] = values.ravel()[flat_enabled]

        # Validation proved every enabled offset is in range, so the
        # unsigned image of the offsets is exact for line numbering.
        lo = unsigned // LINE_BYTES
        hi = (unsigned + np.uint64(size - 1)) // LINE_BYTES
        # Per-row sorted distinct line numbers, without a per-row set:
        # disabled lanes are overwritten with the row's first enabled
        # line (rows with mask == 0 get aux None, so the fill value is
        # then irrelevant), the concatenated lo/hi row is sorted, and
        # duplicates collapse via a keep-first-of-run mask.  ``tolist``
        # materializes plain ints so aux tuples never hold numpy scalars.
        if not all_enabled:
            first = lo[self._row_arange[:lo.shape[0]],
                       enabled.argmax(axis=1)][:, None]
            lo = np.where(enabled, lo, first)
            hi = np.where(enabled, hi, first)
        both = np.concatenate([lo, hi], axis=1)
        both.sort(axis=1)
        keep = np.empty(both.shape, dtype=bool)
        keep[:, 0] = True
        keep[:, 1:] = both[:, 1:] != both[:, :-1]
        lines_rows = both.tolist()
        keep_rows = keep.tolist()
        traces = self.traces
        for row, mask, lines, keep_row in zip(
                rows.tolist(), exec_masks.tolist(), lines_rows, keep_rows):
            aux = tuple(compress(lines, keep_row)) if mask else None
            traces[row].append((pc, mask, aux))

    # -- register-file access -------------------------------------------------

    def _enabled(self, masks: np.ndarray, width: int) -> np.ndarray:
        """Boolean (rows, width) lane-enable matrix for a mask vector."""
        return ((masks[:, None] >> self._lane_shifts[None, :width])
                & np.uint64(1)).astype(bool)

    def _read(self, operand: tuple, rows: np.ndarray) -> np.ndarray:
        """The *rows*' lanes of a ``(lo, hi, view)`` operand, copied."""
        lo, hi, view = operand
        return self.storage[rows, lo:hi].view(view)  # advanced index: a copy

    def _write(self, operand: tuple, rows: np.ndarray, width: int,
               values: np.ndarray, exec_masks: np.ndarray) -> None:
        """Store *values* (``(rows, lanes)``, or one row broadcast to all)
        in the *rows*' lanes of a ``(lo, hi, view)`` operand under
        their execution masks."""
        lo, hi, view = operand
        values = np.asarray(values, dtype=view)
        full = np.uint64((1 << width) - 1)
        if bool(np.all(exec_masks == full)):
            self.storage[rows, lo:hi] = (
                np.ascontiguousarray(values).view(np.uint32))
            return
        block = self.storage[rows, lo:hi]
        np.copyto(block.view(view), values,
                  where=self._enabled(exec_masks, width))
        self.storage[rows, lo:hi] = block
