"""The whole-GPU cycle-level simulator (the paper's GPGenSim substitute).

Execution-driven: kernels are interpreted functionally (registers, flags
and buffers take real values) while an event-accelerated cycle loop
charges time through the EU pipelines and the shared memory hierarchy.
The loop advances directly to the next cycle at which any EU could issue
or any dispatch could happen, so idle stretches (long memory stalls)
cost no host time.

Typical use::

    sim = GpuSimulator(GpuConfig(policy=CompactionPolicy.BCC))
    result = sim.run(program, global_size=4096,
                     buffers={"x": x, "y": y}, scalars={"a": 2.0})
    print(result.total_cycles, result.simd_efficiency)
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..core.stats import CompactionStats
from ..errors import DeadlockError, JobTimeoutError
from ..eu.eu import NEVER, ExecutionUnit, fold_issue_counts
from ..isa.program import Program
from ..memory.hierarchy import MemoryHierarchy
from ..telemetry.collector import make_collector
from .config import GpuConfig
from .dispatch import Launch, bind_surfaces
from .results import KernelRunResult

__all__ = ["DeadlockError", "GpuSimulator"]

#: Cycle-loop iterations between wall-clock deadline checks.
_WALL_CHECK_PERIOD = 64


class GpuSimulator:
    """Drives kernel launches through the configured GPU model.

    Args:
        config: machine parameters (defaults to :class:`GpuConfig`).
        wall_deadline: optional ``time.monotonic()`` instant after which
            the cycle loop aborts with :class:`~repro.errors.JobTimeoutError`
            — the in-process half of the runner's per-job wall-clock
            budget (the parent process enforces a grace backstop for
            workers hung outside this loop).
    """

    def __init__(self, config: Optional[GpuConfig] = None,
                 wall_deadline: Optional[float] = None,
                 hostprof=None) -> None:
        self.config = config if config is not None else GpuConfig()
        self.config.validate()
        self.wall_deadline = wall_deadline
        #: Optional :class:`~repro.telemetry.hostprof.HostProfiler`:
        #: threaded to the EUs for exact per-opcode host-time accounting.
        self.hostprof = hostprof

    def run(
        self,
        program: Program,
        global_size: int,
        local_size: Optional[int] = None,
        buffers: Optional[Dict[str, np.ndarray]] = None,
        scalars: Optional[Dict[str, float]] = None,
        trace_sink: Optional[list] = None,
        memo=None,
    ) -> KernelRunResult:
        """Simulate one kernel launch and return its measurements.

        Buffers are mutated in place (unified memory); every launch
        starts with cold caches and idle ports, matching the paper's
        per-kernel methodology.  Passing a list as *trace_sink* captures
        every ALU instruction's execution mask as a
        :class:`~repro.trace.format.TraceEvent` (the instrumented
        functional model of paper Section 5.1).

        *memo*, a :class:`~repro.eu.batch.FunctionalMemo`, lets the fast
        engine reuse a functional pass that a run under another policy
        already made for this launch; the timing replay still runs in
        full.  The interp engine ignores it.
        """
        config = self.config
        collector = make_collector(config)
        hierarchy = MemoryHierarchy(config.memory, telemetry=collector)
        alu_stats = CompactionStats(min_cycles=1)
        simd_stats = CompactionStats(min_cycles=1)
        surfaces = bind_surfaces(program, buffers or {})
        if config.engine == "fast":
            # Two-phase core: a batched functional pass computes all
            # architectural state and records per-thread issue traces;
            # the cycle loop below replays those traces through the
            # same ExecutionUnit scan the interp engine runs.
            from ..eu.batch import run_functional
            from ..eu.replay import ReplayLaunch, record_trace_stats

            launch_cls = ReplayLaunch
        else:
            launch_cls = Launch
        # The interp EUs count (pc, mask) per SIMD issue here; the counts
        # fold into the stats when the launch ends.
        issue_counts: dict = {}
        eus = [
            ExecutionUnit(i, config, hierarchy, alu_stats, simd_stats,
                          trace_sink,
                          telemetry=(collector.eu(i) if collector is not None
                                     else None),
                          hostprof=self.hostprof, issue_counts=issue_counts)
            for i in range(config.num_eus)
        ]
        launch = launch_cls(
            program,
            global_size,
            local_size,
            surfaces,
            scalars or {},
            config,
            telemetry=collector,
        )
        if config.engine == "fast":
            # Launch construction above already validated the geometry,
            # so the functional pass can assume it (and resolves
            # local_size the same way the launch did).
            key = traces = None
            if memo is not None:
                key = memo.key(program, global_size, launch.local_size,
                               surfaces, scalars or {}, config)
                traces = memo.restore(key, surfaces, alu_stats, simd_stats)
            if traces is None:
                traces = run_functional(
                    program, global_size, launch.local_size, surfaces,
                    scalars or {}, config, self.wall_deadline,
                )
                record_trace_stats(program, traces, alu_stats, simd_stats)
                if memo is not None:
                    memo.store(key, traces, surfaces, alu_stats, simd_stats)
            launch.traces = traces

        now = 0
        # Watchdog state: the last cycle at which any EU issued an
        # instruction (a retire is an EOT issue).  A scheduling deadlock
        # keeps generating events (the dispatch nudge, pipe drains)
        # without ever issuing, so the cycle budget alone would spin for
        # a long time before tripping; the no-progress detector converts
        # that into a typed error within ``watchdog_cycles``.
        last_progress_cycle = 0
        iterations = 0
        # With telemetry off, an EU whose cached event floor lies in the
        # future cannot issue and emits nothing — its step would early-out
        # anyway (see ExecutionUnit.step), so skip even the call.  Any
        # state change that could lower the floor (add_thread, its own
        # issues) clears the cache, making the floor None and the EU
        # steppable again.
        skip_floors = collector is None
        all_dispatched = launch.all_dispatched
        # Interp executes inside this one error state: numpy's
        # floating-point warnings stay off for the run (IEEE results, as
        # the hardware gives), and the state is restored even if the
        # loop raises.
        with np.errstate(all="ignore"):
            while True:
                if not all_dispatched:
                    launch.dispatch(eus, now)
                    all_dispatched = launch.all_dispatched
                progressed = False
                for eu in eus:
                    if skip_floors:
                        floor = eu._event_floor
                        if floor is not None and now < floor:
                            continue
                    if eu.step(now):
                        progressed = True
                if progressed:
                    # Completion needs an EOT, which is an issue.
                    if launch.done:
                        break
                    last_progress_cycle = now
                elif (config.watchdog_cycles
                      and now - last_progress_cycle > config.watchdog_cycles):
                    raise DeadlockError(
                        f"kernel {program.name!r} issued no instruction for "
                        f"{now - last_progress_cycle} cycles (watchdog_cycles="
                        f"{config.watchdog_cycles}) with "
                        f"{launch.pending_workgroups} workgroups undispatched "
                        f"and {launch.live_workgroups} live"
                    )
                iterations += 1
                if (self.wall_deadline is not None
                        and iterations % _WALL_CHECK_PERIOD == 0
                        and time.monotonic() > self.wall_deadline):
                    raise JobTimeoutError(
                        f"kernel {program.name!r} exceeded its wall-clock "
                        f"budget at cycle {now} ({launch.pending_workgroups} "
                        f"workgroups undispatched)"
                    )
                # Inlined min over ExecutionUnit.next_event: the
                # align(now+1) term is identical for every EU, so
                # min_e max(floor_e, t) == max(min_e floor_e, t) and one
                # align suffices.
                floor_min = NEVER
                for eu in eus:
                    floor = eu._event_floor
                    if floor is None:
                        floor = eu._event_floor = eu._compute_event_floor()
                    if floor < floor_min:
                        floor_min = floor
                period = config.issue_period
                next_time = now + 1
                rem = next_time % period
                if rem:
                    next_time += period - rem
                if floor_min > next_time:
                    next_time = floor_min
                if not all_dispatched:
                    threads_per_wg = launch.threads_per_wg
                    for eu in eus:
                        if eu._free >= threads_per_wg:
                            if now + 1 < next_time:
                                next_time = now + 1
                            break
                if next_time >= NEVER:
                    raise DeadlockError(
                        f"kernel {program.name!r} stalled at cycle {now} with "
                        f"{launch.pending_workgroups} workgroups pending"
                    )
                if next_time <= now:
                    raise DeadlockError(
                        f"event time went backwards at cycle {now}")
                now = next_time
                if now > config.max_cycles:
                    raise DeadlockError(
                        f"kernel {program.name!r} exceeded "
                        f"max_cycles={config.max_cycles}"
                    )

        # Empty on the fast engine, which recorded its traces up front.
        fold_issue_counts(program, issue_counts, alu_stats, simd_stats)
        return KernelRunResult(
            kernel=program.name,
            telemetry=(collector.result(now) if collector is not None
                       else None),
            policy=config.policy,
            total_cycles=now,
            instructions=sum(eu.instructions_issued for eu in eus),
            alu_stats=alu_stats,
            simd_stats=simd_stats,
            l3_hits=hierarchy.l3.stats.hits,
            l3_accesses=hierarchy.l3.stats.accesses,
            llc_hits=hierarchy.llc.stats.hits,
            llc_accesses=hierarchy.llc.stats.accesses,
            dc_lines=hierarchy.data_cluster.lines_transferred,
            dram_lines=hierarchy.dram.lines_transferred,
            memory_messages=hierarchy.messages,
            lines_requested=hierarchy.lines_requested,
            workgroups=launch.num_workgroups,
            fpu_busy_cycles=sum(eu.pipes.fpu.busy_cycles for eu in eus),
            em_busy_cycles=sum(eu.pipes.em.busy_cycles for eu in eus),
            send_busy_cycles=sum(eu.pipes.send.busy_cycles for eu in eus),
        )
