"""Offline BCC/SCC profiling of execution-mask traces.

This is the paper's trace-based evaluation path (Section 5.1): the
instrumented functional model emits ``(width, mask)`` per instruction;
the profiler replays the stream through the compaction cycle model and
reports SIMD efficiency, utilization breakdown, and EU-cycle reductions
— without any pipeline simulation, which is why the paper could cover
~600 traces this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..core.policy import CompactionPolicy
from ..core.stats import CompactionStats, is_divergent
from .format import TraceEvent


@dataclass
class TraceProfile:
    """Profiling result for one trace."""

    name: str
    stats: CompactionStats

    @property
    def simd_efficiency(self) -> float:
        return self.stats.simd_efficiency

    @property
    def divergent(self) -> bool:
        """Paper classification: SIMD efficiency below 95 %."""
        return is_divergent(self.simd_efficiency)

    @property
    def bcc_reduction_pct(self) -> float:
        """EU-cycle reduction of BCC beyond the IVB baseline."""
        return self.stats.reduction_pct(CompactionPolicy.BCC)

    @property
    def scc_reduction_pct(self) -> float:
        """EU-cycle reduction of SCC beyond the IVB baseline."""
        return self.stats.reduction_pct(CompactionPolicy.SCC)

    @property
    def scc_additional_pct(self) -> float:
        """SCC's gain over and above BCC (the stacked part of Fig. 10)."""
        return self.scc_reduction_pct - self.bcc_reduction_pct

    def summary(self) -> Dict[str, float]:
        out = self.stats.summary()
        out["divergent"] = float(self.divergent)
        return out


class ProfileSink:
    """A trace sink that profiles events as they arrive.

    It goes where a ``trace_sink`` list would, but holds no event
    stream: :meth:`append` counts each ``(mask, width, dtype_factor)``
    signature, and :meth:`stats` folds the counts in first-seen order
    with :meth:`CompactionStats.record_bulk`, which is bit-identical to
    recording every event (the fold both engines apply to their issue
    counts).  :meth:`clear` starts over, as a retried run does.
    """

    def __init__(self, min_cycles: int = 1) -> None:
        self.min_cycles = min_cycles
        #: Signature -> events appended since the last :meth:`clear`.
        self.counts: Dict[Tuple[int, int, int], int] = {}

    def append(self, event: TraceEvent) -> None:
        key = (event.mask, event.width, event.dtype_factor)
        self.counts[key] = self.counts.get(key, 0) + 1

    def clear(self) -> None:
        self.counts.clear()

    def stats(self) -> CompactionStats:
        stats = CompactionStats(min_cycles=self.min_cycles)
        for (mask, width, factor), n in self.counts.items():
            stats.record_bulk(mask, width, factor, count=n)
        return stats


def profile_trace(name: str, events: Iterable[TraceEvent],
                  min_cycles: int = 1) -> TraceProfile:
    """Replay *events* through the compaction model (a
    :class:`ProfileSink`).

    ``min_cycles=1`` matches the execution-driven simulator's convention
    that a fully masked-off instruction still spends an issue slot.
    """
    sink = ProfileSink(min_cycles)
    for event in events:
        sink.append(event)
    return TraceProfile(name=name, stats=sink.stats())


def profile_many(traces: Dict[str, Iterable[TraceEvent]],
                 min_cycles: int = 1) -> Dict[str, TraceProfile]:
    """Profile a dict of named traces (insertion order preserved)."""
    return {
        name: profile_trace(name, events, min_cycles)
        for name, events in traces.items()
    }
