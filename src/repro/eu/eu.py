"""The execution unit (EU): arbitration, issue, and timing.

Models the multi-threaded SIMD core of paper Section 2.2.  Per
arbitration pass (every two cycles) the EU issues up to two instructions
from distinct ready hardware threads.  ALU instructions occupy the FPU
or EM pipe for the number of quad cycles charged by the configured
compaction policy — this is where BCC/SCC turn mask statistics into
time.  Memory and barrier messages go through the SEND pipe to the
shared memory hierarchy; structured control flow executes in the front
end via the per-thread mask stack.

Both engines run the same scan, :meth:`ExecutionUnit.step`.  They differ
only in where an issuing thread's ``(mask, aux)`` record comes from (the
trace schema of :mod:`repro.eu.batch`): the interp engine executes the
instruction on the thread's registers, mask stack and buffers
(:meth:`ExecutionUnit._execute`); the fast engine reads the next entry
of the thread's functional trace (:mod:`repro.eu.replay`).  Arbitration,
pipes, scoreboard, retire, barriers and the memory hierarchy see the
same records either way.

The EU is also the measurement point: the interp engine counts every
issued SIMD instruction's ``(pc, exec_mask)`` and
:func:`fold_issue_counts` folds the counts into the run's
:class:`~repro.core.stats.CompactionStats` when the launch ends, exactly
like the instrumented functional model the paper uses for its trace
studies.  (The fast engine folds its traces the same way, up front.)
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..core.policy import execution_cycles
from ..core.stats import CompactionStats
from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode, Pipe
from ..isa.registers import RegRef
from ..memory.cache import LINE_BYTES
from ..memory.hierarchy import MemoryHierarchy
from .grf import _mask_bools
from .interp import _offsets, _transfer, alu_plan, mem_plan, run_alu, run_slm
from .maskstack import pred_mask
from .pipes import PipeSet
from .thread import EUThread, ThreadState

#: Sentinel "never" time for event scheduling.
NEVER = 1 << 62


def _send_occupancy(inst: Instruction) -> int:
    """SEND pipe occupancy of one memory message, in cycles.

    One cycle per 256-bit GRF register the message moves out of the
    register file: the per-lane address payload for every access, plus
    the data payload for stores (``sources[1]``).  Loads receive their
    data through write-back, which the scoreboard charges separately.
    """
    moved = sum(len(s.regs(inst.width)) for s in inst.sources
                if isinstance(s, RegRef))
    return max(1, moved)


def _num_reg_sources(inst: Instruction) -> int:
    """Register source-operand count (RF-traffic accounting)."""
    return sum(1 for s in inst.sources if isinstance(s, RegRef))


#: Opcode pipe -> index into :attr:`PipeSet.by_index`.
_PIPE_INDEX = {Pipe.FPU: 0, Pipe.EM: 1, Pipe.SEND: 2}

#: Issue paths of the scan; an instruction's plan selects one.  The
#: order matters: every kind from ``_ALU`` on is a SIMD instruction whose
#: issue counts into the compaction statistics.
_CTRL, _EOT, _BARRIER, _ALU, _SLM, _GLOBAL = range(6)


def _issue_info(inst: Instruction) -> tuple:
    """``(inst, deps, pipe_index, plan)`` of an instruction, cached on it.

    * ``deps``: the ``(registers, flags)`` the thread's
      :class:`~repro.eu.scoreboard.Scoreboard` is probed for — reads +
      writes (RAW/WAW), the predicate flag and the flag destination — so
      the scan can take the readiness max directly.
    * ``pipe_index``: index into :attr:`PipeSet.by_index`, -1 for CTRL.
    * ``plan``: ``(kind, data)``, the issue path and the static operands
      it needs.

    A thread holds this tuple until it advances, so the scan's
    per-cycle probes cost one attribute load.  Instructions are
    immutable after program finalization.
    """
    info = inst.__dict__.get("_issue_info_cache")
    if info is not None:
        return info
    op = inst.opcode
    flags = []
    if inst.pred is not None:
        flags.append(inst.pred.index)
    if inst.flag_dst is not None and inst.flag_dst.index not in flags:
        flags.append(inst.flag_dst.index)
    deps = (tuple(inst.reads()) + tuple(inst.writes()), tuple(flags))
    writes = (tuple(inst.writes())
              if op.writes_dst and inst.dst is not None else None)
    if op.pipe is Pipe.CTRL:
        pidx = -1
        plan = (_EOT if op is Opcode.EOT else _CTRL, None)
    else:
        pidx = _PIPE_INDEX[op.pipe]
        if op is Opcode.BARRIER:
            plan = (_BARRIER, None)
        elif op.is_memory:
            plan = (_SLM if op.is_slm else _GLOBAL,
                    (_send_occupancy(inst), writes, inst.surface))
        else:
            flag = (inst.flag_dst.index
                    if op is Opcode.CMP and inst.flag_dst is not None
                    else None)
            plan = (_ALU, (op.latency, writes, flag, inst.width,
                           inst.dtype_factor))
    info = inst.__dict__["_issue_info_cache"] = (inst, deps, pidx, plan)
    return info


def fold_issue_counts(program, counts: dict, alu_stats: CompactionStats,
                      simd_stats: CompactionStats) -> None:
    """Fold ``(pc, mask) -> issues`` counts into a launch's stats.

    :meth:`CompactionStats.record` is pure accumulation, so counting
    each distinct ``(pc, mask)`` and recording every group once through
    :meth:`CompactionStats.record_bulk` gives bit-identical counters to
    recording per issue.  Groups fold in first-seen order, so even the
    insertion order of ``bucket_counts`` matches per-issue recording
    when *counts* was filled in issue order.  Control and barrier
    entries are skipped; memory messages count into *simd_stats* only,
    with their actual payload operand counts.
    """
    sigs: list = []
    for inst in program.instructions:
        op = inst.opcode
        if op.pipe is Pipe.CTRL or op is Opcode.BARRIER:
            sigs.append(None)
        elif op.is_memory:
            sigs.append((True, inst.width, inst.dtype_factor,
                         _num_reg_sources(inst),
                         1 if op.writes_dst else 0))
        else:
            sigs.append((False, inst.width, inst.dtype_factor,
                         _num_reg_sources(inst), 1))
    groups: dict = {}
    for (pc, mask), n in counts.items():
        sig = sigs[pc]
        if sig is not None:
            key = (sig, mask)
            groups[key] = groups.get(key, 0) + n
    for ((is_mem, width, factor, num_src, num_dst), mask), n in groups.items():
        simd_stats.record_bulk(mask, width, factor, num_src, num_dst, count=n)
        if not is_mem:
            alu_stats.record_bulk(mask, width, factor, num_src, count=n)


class ExecutionUnit:
    """One EU: thread slots, pipes, and the issue/timing logic."""

    def __init__(self, eu_id: int, config, hierarchy: MemoryHierarchy,
                 alu_stats: CompactionStats, simd_stats: CompactionStats,
                 trace_sink: Optional[list] = None,
                 telemetry=None, hostprof=None,
                 issue_counts: Optional[dict] = None) -> None:
        self.eu_id = eu_id
        self.config = config
        self.hierarchy = hierarchy
        #: The run's stats; :func:`fold_issue_counts` fills them from
        #: ``issue_counts`` (interp) or from the traces (fast).
        self.alu_stats = alu_stats
        self.simd_stats = simd_stats
        #: Fast engine: the threads are
        #: :class:`~repro.eu.replay.ReplayThread` objects, which read
        #: their records from a trace instead of executing.
        self.replay = config.engine == "fast"
        #: Interp: ``(pc, exec_mask) -> issues`` of SIMD instructions,
        #: shared by a launch's EUs and folded when the launch ends.
        self.issue_counts = {} if issue_counts is None else issue_counts
        # Observer hooks.  Each is None when off and then costs the scan
        # one branch; none of them changes what the scan does.
        #: When set, every issued ALU instruction's (width, mask) is
        #: appended as a TraceEvent -- the paper's instrumented
        #: functional model (Section 5.1), usable for offline profiling.
        self.trace_sink = trace_sink
        #: Optional :class:`~repro.telemetry.collector.EuTelemetry` view.
        self.telemetry = telemetry
        #: Optional :class:`~repro.telemetry.hostprof.HostProfiler` for
        #: exact per-opcode host-time accounting.
        self.hostprof = hostprof
        self.pipes = PipeSet()
        self.threads: List[Optional[EUThread]] = [None] * config.threads_per_eu
        #: Count of empty thread slots, kept in sync by :meth:`add_thread`
        #: and the EOT retire path — the dispatcher probes every EU every
        #: event cycle, so this must not be a scan.
        self._free = config.threads_per_eu
        self._rr = 0  # rotating-priority pointer (paper: rotating/age arbiter)
        self.instructions_issued = 0
        #: Threads that reached EOT.
        self.threads_retired = 0
        #: Cached state-only event floor: the earliest arbitration cycle
        #: at which any resident thread could issue, ignoring the caller's
        #: ``now``.  Valid until this EU's state changes — and every
        #: mutation that can affect it (issues, EOT retires, barrier
        #: arrivals/releases of the workgroups resident here) happens
        #: inside this EU's own ``step``, or in :meth:`add_thread`; both
        #: invalidate.  Lets ``step`` skip whole arbitration scans and
        #: ``next_event`` skip whole thread walks while the EU waits.
        self._event_floor: Optional[int] = None
        #: Arbitration orders, one per rotating-pointer value.  ``_rr``
        #: rotates on issue under either arbiter, but the fixed arbiter
        #: ignores it: every pass scans from slot 0.
        n = config.threads_per_eu
        self._orders: List[List[int]] = (
            [list(range(n))] * n if config.arbiter == "fixed"
            else [[(r + i) % n for i in range(n)] for r in range(n)])
        #: (mask, width, dtype_factor) -> policy execution cycles, a plain
        #: dict in front of :func:`execution_cycles` (the policy is fixed
        #: for the EU's lifetime).
        self._cycles_memo: dict = {}

    # -- thread management ---------------------------------------------------

    def free_slots(self) -> int:
        return self._free

    def add_thread(self, thread: EUThread) -> None:
        self._event_floor = None
        for slot, occupant in enumerate(self.threads):
            if occupant is None:
                self.threads[slot] = thread
                self._free -= 1
                if self.telemetry is not None:
                    self.telemetry.counters.incr("threads.dispatched")
                return
        raise RuntimeError(f"EU{self.eu_id} has no free thread slot")

    # -- per-cycle operation ---------------------------------------------------

    def step(self, now: int) -> int:
        """Run one arbitration pass; return how many instructions issued.

        Call only on arbitration cycles (others return 0).  The scan
        walks the threads in arbitration order, issues up to
        ``issue_width`` ready ones, and applies each issue's pipe,
        scoreboard, memory and retire updates inline.

        The scan doubles as the event-floor walk: a pass that issues
        nothing has evaluated every resident thread's readiness, so it
        leaves the exact floor behind; a pass that issues clears the
        floor for :meth:`_compute_event_floor` to rederive.

        Interp executes in the caller's numpy error state: the caller
        holds ``np.errstate(all="ignore")`` (IEEE results, as the
        hardware gives) once per run, as :meth:`GpuSimulator.run
        <repro.gpu.simulator.GpuSimulator.run>` does around its cycle
        loop.
        """
        config = self.config
        if now % config.issue_period != 0:
            return 0
        tel = self.telemetry
        floor = self._event_floor
        # Nothing can issue before the cached event floor, so the whole
        # scan would be a no-op — unless telemetry wants the per-slot
        # stall events the scan emits.
        if floor is not None and now < floor and tel is None:
            return 0
        prof = self.hostprof
        sink = self.trace_sink
        if sink is not None:
            from ..trace.format import TraceEvent
        replay = self.replay
        issue_counts = self.issue_counts
        issued = 0
        last_issued = -1
        best = NEVER  # exact floor candidate, valid only if nothing issues
        threads = self.threads
        pipes = self.pipes.by_index
        issue_width = config.issue_width
        policy = config.policy
        cycles_memo = self._cycles_memo
        active = ThreadState.ACTIVE
        for slot in self._orders[self._rr]:
            if issued >= issue_width:
                break
            thread = threads[slot]
            if thread is None or thread.state is not active:
                continue
            packed = thread._packed_cache
            if packed is None:
                packed = self._fetch(thread)
            ready = thread._ready_cache
            if ready < thread.stall_until:
                ready = thread.stall_until
            pidx = packed[2]
            if ready > now:
                if tel is not None:
                    tel.stall(now, slot, "scoreboard"
                              if thread._ready_cache > now else "dispatch")
                if pidx >= 0:
                    busy = pipes[pidx].busy_until
                    if busy > ready:
                        ready = busy
                if ready < best:
                    best = ready
                continue
            if pidx >= 0:
                busy = pipes[pidx].busy_until
                if busy > now:
                    if tel is not None:
                        tel.stall(now, slot, "pipe")
                    if busy < best:
                        best = busy
                    continue

            # -- issue ---------------------------------------------------
            if prof is not None:
                start = time.perf_counter()
            thread.instructions_executed += 1
            thread.last_issue_cycle = now
            inst = packed[0]
            kind, data = packed[3]
            # The record: read from the trace (fast) or executed (interp).
            if replay:
                entry = thread.trace[thread.index]
                thread.index += 1
                thread._packed_cache = None
                thread._ready_cache = None
                mask = entry[1]
                aux = entry[2]
            else:
                pc = thread.pc
                mask, aux = self._execute(thread, inst, kind)
                if kind >= _ALU:
                    key = (pc, mask)
                    issue_counts[key] = issue_counts.get(key, 0) + 1
            if kind == _ALU:
                latency, writes, flag, width, factor = data
                cycles = cycles_memo.get((mask, width, factor))
                if cycles is None:
                    cycles = cycles_memo[(mask, width, factor)] = (
                        execution_cycles(mask, width, policy, factor, 1))
                pipe = pipes[pidx]
                completion = now + cycles
                pipe.busy_until = completion
                pipe.busy_cycles += cycles
                completion += latency
                if writes is not None:
                    reg_ready = thread.scoreboard._reg_ready
                    for reg in writes:
                        if completion > reg_ready.get(reg, 0):
                            reg_ready[reg] = completion
                    if tel is not None:
                        tel.counters.incr("scoreboard.reg_writes")
                if flag is not None:
                    flag_ready = thread.scoreboard._flag_ready
                    if completion > flag_ready.get(flag, 0):
                        flag_ready[flag] = completion
                    if tel is not None:
                        tel.counters.incr("scoreboard.flag_writes")
                if tel is not None:
                    tel.alu_issue(now, inst, mask, cycles, pipe.name, policy)
                if sink is not None:
                    sink.append(TraceEvent(width, mask, factor))
            elif kind >= _SLM:
                occupancy, writes, surface = data
                send = pipes[pidx]
                send.busy_until = now + occupancy
                send.busy_cycles += occupancy
                if tel is not None:
                    tel.mem_issue(now, inst, mask, occupancy)
                if mask == 0:
                    completion = now + 1  # suppressed message
                elif kind == _SLM:
                    # aux: the bank-conflict cycles.  Executing the access
                    # already counted it; a replayed one counts here.
                    wg = thread.workgroup
                    if replay and wg is not None:
                        wg.slm_timing.accesses += 1
                        wg.slm_timing.conflict_cycles += (
                            aux - wg.slm_timing.latency)
                    completion = now + aux
                else:
                    completion = self.hierarchy.access(
                        now, [(surface, line) for line in aux])
                if writes is not None:
                    reg_ready = thread.scoreboard._reg_ready
                    for reg in writes:
                        if completion > reg_ready.get(reg, 0):
                            reg_ready[reg] = completion
            elif kind == _CTRL:
                if tel is not None:
                    # Post-instruction mask population: the divergence
                    # timeline.
                    tel.ctrl_issue(now, inst, mask, inst.width)
            elif kind == _EOT:
                thread.state = ThreadState.DONE
                threads[slot] = None
                self._free += 1
                self.threads_retired += 1
                if tel is not None:
                    tel.thread_retired(now)
                if thread.workgroup is not None:
                    thread.workgroup.thread_done(now)
            else:  # _BARRIER; the thread resumes after it on release
                if tel is not None:
                    tel.barrier(now)
                wg = thread.workgroup
                if wg is not None:  # free-standing thread: a no-op
                    thread.state = ThreadState.AT_BARRIER
                    wg.arrive_barrier(thread, now, config.barrier_latency)
            if prof is not None:
                prof.add_opcode(inst.opcode.name, time.perf_counter() - start)
            issued += 1
            last_issued = slot
        if issued:
            self.instructions_issued += issued
            # Rotate past the last slot that actually issued, not past
            # the head of the order: a stalled head thread that never got
            # to issue must keep its priority, or it can be starved by
            # the threads behind it issuing pass after pass.
            self._rr = (last_issued + 1) % len(threads)
            self._event_floor = None
        else:
            if best < NEVER:
                period = config.issue_period
                rem = best % period
                if rem:
                    best += period - rem
            self._event_floor = best
        return issued

    def _fetch(self, thread: EUThread) -> tuple:
        """Cache *thread*'s next instruction's issue info and readiness.

        Sets ``_packed_cache`` (see :func:`_issue_info`) and
        ``_ready_cache``, the cycle its scoreboard dependencies clear.
        Both stay valid until the thread issues: only its own issues
        change its scoreboard, and every issue clears both.
        """
        try:
            pc = (thread.trace[thread.index][0] if self.replay
                  else thread.pc)
            inst = thread.program.instructions[pc]
        except IndexError:
            raise RuntimeError(
                f"thread {thread.thread_id} ran past the end of its "
                f"instruction stream without retiring"
            ) from None
        info = inst.__dict__.get("_issue_info_cache")
        if info is None:
            info = _issue_info(inst)
        thread._packed_cache = info
        scoreboard = thread.scoreboard
        reg_ready = scoreboard._reg_ready
        flag_ready = scoreboard._flag_ready
        ready = 0
        if reg_ready:
            for reg in info[1][0]:
                r = reg_ready.get(reg, 0)
                if r > ready:
                    ready = r
        if flag_ready:
            for flag in info[1][1]:
                r = flag_ready.get(flag, 0)
                if r > ready:
                    ready = r
        thread._ready_cache = ready
        return info

    def next_event(self, now: int) -> int:
        """Earliest future cycle at which this EU could issue something.

        Per thread the candidate is ``align(max(ready, pipe_busy,
        now + 1))``; since the round-up to the arbitration boundary is
        monotone, ``align(max(a, b)) == max(align(a), align(b))`` and
        the ``now + 1`` floor factors out of the minimum:
        ``min_i align(max(r_i, b_i, now+1)) ==
        max(min_i align(max(r_i, b_i)), align(now+1))``.  The first term
        depends only on EU state, so it is cached in ``_event_floor``.
        """
        floor = self._event_floor
        if floor is None:
            floor = self._event_floor = self._compute_event_floor()
        period = self.config.issue_period
        t = now + 1
        if t % period != 0:
            t += period - (t % period)
        return floor if floor > t else t

    def _compute_event_floor(self) -> int:
        """State-only part of :meth:`next_event` (no ``now`` floor).

        Per thread ``max(ready, stall, pipe_busy)``, the same candidate
        a non-issuing :meth:`step` collects.  The round-up to the
        arbitration boundary is monotone, so it commutes with the min
        over threads and is applied once at the end.
        """
        best = NEVER
        pipes = self.pipes.by_index
        active = ThreadState.ACTIVE
        for thread in self.threads:
            if thread is None or thread.state is not active:
                continue
            packed = thread._packed_cache
            if packed is None:
                packed = self._fetch(thread)
            t = thread._ready_cache
            if t < thread.stall_until:
                t = thread.stall_until
            pidx = packed[2]
            if pidx >= 0:
                busy = pipes[pidx].busy_until
                if busy > t:
                    t = busy
            if t < best:
                best = t
        if best < NEVER:
            period = self.config.issue_period
            rem = best % period
            if rem:
                best += period - rem
        return best

    # -- the interp engine's record source ------------------------------------

    def _execute(self, thread: EUThread, inst: Instruction,
                 kind: int) -> tuple:
        """Execute *inst* on *thread*; return its ``(mask, aux)`` record.

        Registers, flags, the mask stack and buffers change as the
        instruction says, and the pc moves past it (EOT leaves it in
        place).  The record follows the trace schema of
        :mod:`repro.eu.batch`: the execution mask (for SEL the current
        mask; for control the post-instruction mask population), with
        ``aux`` the SLM conflict cycles or the global cache lines of a
        memory message that is not suppressed.

        ALU and memory instructions run from their cached plans
        (:func:`~repro.eu.interp.alu_plan`,
        :func:`~repro.eu.interp.mem_plan`), built on first execution.
        The caller holds ``np.errstate(all="ignore")`` for the whole run
        (see :meth:`step`).
        """
        masks = thread.masks
        next_pc: Optional[int] = None
        aux = None
        pred = pred_mask(inst, thread.flags)
        if kind == _ALU:
            if inst.opcode is Opcode.SEL:
                # The predicate is the per-lane selector, not an
                # execution mask.
                mask, selector = masks.current, pred
            else:
                mask, selector = masks.exec_mask(pred), 0
            run_alu(alu_plan(inst), mask, thread.grf._storage, thread.flags,
                    selector)
        elif kind >= _SLM:
            mask = masks.exec_mask(pred)
            plan = mem_plan(inst)
            if mask and kind == _SLM:
                wg = thread.workgroup
                aux = run_slm(thread.grf._storage, plan, wg and wg.slm,
                              wg and wg.slm_timing, mask, thread.program.name)
            elif mask:
                aux = _do_global(thread, plan, mask)
        elif kind == _CTRL:
            next_pc = masks.control(inst, pred, thread.program.instructions)
            mask = masks.current
        elif kind == _EOT:
            return masks.current, None
        else:  # _BARRIER
            mask = masks.current
        thread.advance(next_pc)
        return mask, aux


def _do_global(thread: EUThread, plan: tuple, exec_mask: int) -> list:
    """Execute a global message; return the sorted distinct cache lines."""
    storage = thread.grf._storage
    offsets = _offsets(storage, plan)
    wg = thread.workgroup
    if wg is None:
        raise RuntimeError("global memory access outside a launch context")
    dtype, surface, width = plan[3:]
    _transfer(storage, plan, wg.surfaces[surface], offsets, exec_mask)
    offs = offsets[_mask_bools(exec_mask, width)].astype(np.int64)
    return sorted({*(offs // LINE_BYTES).tolist(),
                   *((offs + dtype.size - 1) // LINE_BYTES).tolist()})
