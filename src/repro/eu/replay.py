"""Cycle-accurate replay of functional traces (phase two of the fast core).

:mod:`repro.eu.batch` produces, per hardware thread, the exact sequence
of ``(pc, mask, aux)`` issue records the interleaved interpreter would
have generated.  This module feeds those records through the *unchanged*
timing machinery: a :class:`ReplayThread` carries its trace, and
:meth:`ExecutionUnit.step <repro.eu.eu.ExecutionUnit.step>` reads each
issuing thread's record from it instead of executing the instruction.
Arbitration, event scheduling, pipe occupancy, scoreboard bookkeeping,
compaction-policy cycle charging and memory-hierarchy state all run the
one scan both engines share; the engines can only differ in what the
replay skips: touching registers, flags, or buffers.

Trace schema: see :mod:`repro.eu.batch`.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import List, Optional

from ..gpu.dispatch import Launch
from .eu import fold_issue_counts
from .thread import EUThread

__all__ = ["ReplayThread", "ReplayLaunch", "record_trace_stats"]


def record_trace_stats(program, traces, alu_stats, simd_stats) -> None:
    """Fold a launch's functional traces into the run's CompactionStats.

    The fast engine knows the whole issue stream before the cycle loop
    starts, so it counts ``(pc, mask)`` pairs over the traces (at C
    speed: ~50k entries per big workload make a per-entry Python loop
    the measurable cost) and folds them up front with
    :func:`~repro.eu.eu.fold_issue_counts`, the same fold the interp
    engine applies to the pairs it counts while issuing.
    """
    pc_mask = itemgetter(0, 1)
    pair_counts: Counter = Counter()
    for trace in traces:
        pair_counts.update(map(pc_mask, trace))
    fold_issue_counts(program, pair_counts, alu_stats, simd_stats)


class ReplayThread(EUThread):
    """An EU thread that walks a recorded issue trace instead of a pc.

    ``index`` is the position of the next record in ``trace``; the EU's
    scan reads the record and advances it when the thread issues.  The
    functional pass already evolved the architectural state, so the
    thread carries no registers, flags or mask stack.
    """

    def __init__(self, thread_id: int, program, dispatch_mask: int,
                 trace: List[tuple], workgroup=None, start_cycle: int = 0) -> None:
        super().__init__(thread_id, program, dispatch_mask,
                         workgroup=workgroup, start_cycle=start_cycle)
        self.trace = trace
        self.index = 0

    def _init_arch_state(self, dispatch_mask: int) -> None:
        pass


class ReplayLaunch(Launch):
    """A launch that materializes :class:`ReplayThread` objects.

    Thread enumeration order is inherited from :class:`Launch`, and the
    batch engine enumerates identically, so ``traces[thread_id]`` is the
    trace of the thread materialized with that id.  Dispatch payloads are
    skipped: architectural state already evolved in the functional pass.
    """

    def __init__(self, *args, traces: Optional[List[List[tuple]]] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.traces = traces

    def _make_thread(self, thread_id: int, dispatch_mask: int, instance,
                     start_cycle: int) -> EUThread:
        if self.traces is None or thread_id >= len(self.traces):
            raise RuntimeError(
                f"no functional trace for thread {thread_id} of kernel "
                f"{self.program.name!r}"
            )
        return ReplayThread(
            thread_id=thread_id,
            program=self.program,
            dispatch_mask=dispatch_mask,
            trace=self.traces[thread_id],
            workgroup=instance,
            start_cycle=start_cycle,
        )

    def _write_payload(self, thread: EUThread, global_base: int,
                       local_base: int) -> None:
        # Scalar-argument presence was validated by the functional pass.
        pass
