"""Bandwidth-limited transfer ports.

Two shared ports gate memory traffic in the model:

* the **data cluster** port between the EUs and the L3 cache — the DC1
  (one 64-byte line per cycle) vs DC2 (two lines per cycle) knob that
  paper Figure 11 and Table 4 sweep; and
* the **DRAM** port behind the LLC, whose lower bandwidth and long
  latency make workloads like BFS memory-bound (paper Figure 12).

A port serializes line transfers: each takes ``1 / lines_per_cycle``
cycles of port occupancy, and a transfer begins no earlier than both the
request time and the port's next free slot.
"""

from __future__ import annotations


class BandwidthPort:
    """A shared port transferring cache lines at a fixed peak rate."""

    def __init__(self, name: str, lines_per_cycle: float) -> None:
        if lines_per_cycle <= 0:
            raise ValueError(f"lines_per_cycle must be positive, got {lines_per_cycle}")
        self.name = name
        self.lines_per_cycle = lines_per_cycle
        self._next_free = 0.0
        self._cycles_per_line = 1.0 / lines_per_cycle
        self.lines_transferred = 0

    def grant(self, now: float) -> float:
        """Reserve the next transfer slot at or after *now*.

        Returns the cycle at which the line begins transferring.
        """
        start = self._next_free
        if now > start:
            start = float(now)
        self._next_free = start + self._cycles_per_line
        self.lines_transferred += 1
        return start

    def throughput(self, total_cycles: int) -> float:
        """Achieved lines per cycle over a run of *total_cycles* cycles."""
        if total_cycles <= 0:
            return 0.0
        return self.lines_transferred / total_cycles

    def reset(self) -> None:
        self._next_free = 0.0
        self.lines_transferred = 0
