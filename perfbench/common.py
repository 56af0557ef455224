"""Shared plumbing for the benchmark: paths, host calibration, statistics,
process accounting and the per-run scratch directory.

Everything here is benchmark-owned and independent of the simulator's
source, so a change to ``src/`` never changes what these helpers measure.
"""

from __future__ import annotations

import heapq
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch space for caches, daemon data dirs and trace files.  Lives
#: inside the checkout (the benchmark writes nowhere else) and is removed
#: at the end of every run.
WORK = ROOT / ".perfbench-work"

#: Every job the benchmark submits pins these explicitly, so a later flip
#: of a GpuConfig or JobSpec default cannot silently change a workload.
SWEEP_POLICIES = ("ivb", "bcc", "scc")
ENGINE = "fast"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, dead daemon...)."""


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark spawns: the checkout's
    sources first on the path, all temp and cache files in the scratch
    dir, never ``~/.cache/repro-sim``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH", "")) if p)
    env["TMPDIR"] = str(WORK)
    env["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_WORKER_CHAOS", None)
    return env


@contextmanager
def scratch_dir(tag: str):
    """A fresh directory under :data:`WORK`, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()  # only succeeds once nothing else is in flight
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Host calibration
#
# The host drifts by tens of percent over minutes and flips between a fast
# and a slow state for seconds at a time; every process on it slows
# together.  A run therefore interleaves short, fixed calibration slices
# with its work and reports times in *reference-host seconds*: raw time x
# CAL_REFERENCE_S / mean slice time.  The mean (not the median) is the
# estimator because the slices are bimodal and the work's cost integrates
# over both states; the slowest 5% (preemptions) are trimmed.
#
# A slice is benchmark-owned work, so no change to ``src/`` can move it:
# event-driven toy SIMT steps (interpreter-bound, small working set), then
# pointer chasing through a few MiB of objects (memory-latency bound).
# Measured on a 2-vCPU KVM guest, the first alone slows down more than the
# simulator when the host turns slow and the second less; together they
# track it better than either, though not exactly.

#: Reference slice time.  Only rescales reported times: any constant
#: would do, and it must stay fixed for results to compare across runs.
CAL_REFERENCE_S = 0.008
#: Share of the slowest calibration slices left out of the mean.
CAL_TRIM = 0.05
#: Seconds of work between two timer-driven calibration slices.
SAMPLE_PERIOD_S = 0.15


class _Warp:
    __slots__ = ("pc", "mask", "regs", "stats")

    def __init__(self, np, wid: int) -> None:
        self.pc = wid % 97
        self.mask = 0xFFFF
        self.regs = np.zeros((4, 16), dtype=np.int32)
        self.stats: Dict[int, int] = {}


def _toy_simt(np, steps: int) -> int:
    """Event-driven toy SIMT core: heap, dicts, small numpy ops."""
    warps = [_Warp(np, i) for i in range(256)]
    lines: Dict[int, int] = {}
    queue = [(0, i) for i in range(len(warps))]
    heapq.heapify(queue)
    for _ in range(steps):
        now, wid = heapq.heappop(queue)
        warp = warps[wid]
        op = (warp.pc * 7 + wid) % 5
        if op == 0:
            warp.regs[1] = warp.regs[0] + wid
        elif op == 1:
            warp.mask = (int(np.count_nonzero(warp.regs[1] & 1))
                         | (warp.mask & 0xFF00))
        elif op == 2:
            line = (wid * 131 + warp.pc * 17) % 4096
            now += 4 if line in lines else 40
            lines[line] = now
        elif op == 3:
            key = warp.pc % 13
            warp.stats[key] = warp.stats.get(key, 0) + bin(warp.mask).count("1")
        else:
            warp.regs[2] = np.where(warp.regs[1] > 3, warp.regs[0], warp.regs[2])
        warp.pc = (warp.pc + 1) % 97
        heapq.heappush(queue, (now + 1 + op, wid))
    return len(lines)


class _Node:
    __slots__ = ("next", "vals")


def _memory_maze(nodes: int = 16384, keys: int = 65536):
    """A shuffled ring of objects plus a large dict (a few MiB)."""
    import random

    rng = random.Random(7)
    ring = [_Node() for _ in range(nodes)]
    order = list(range(nodes))
    rng.shuffle(order)
    for i, node in enumerate(ring):
        node.next = ring[order[i]]
        node.vals = [i, i + 1, i + 2, i + 3]
    table = {(i * 2654435761) % (1 << 30): i for i in range(keys)}
    probes = list(table)
    rng.shuffle(probes)
    return ring[0], table, probes


def _chase(maze, steps: int) -> int:
    node, table, probes = maze
    acc = 0
    for i in range(steps):
        node = node.next
        acc += node.vals[i & 3] ^ table[probes[(i * 7919) % len(probes)]]
    return acc


class HostClock:
    """Collects calibration slices interleaved with a run's work.

    ``paused`` and ``cpu`` total the wall and CPU seconds spent in slices,
    so callers that slip slices into a timed region can take them out.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._maze = _memory_maze()
        self.slices: List[float] = []
        self.paused = 0.0
        self.cpu = 0.0
        self._busy = False
        self._slice()  # warm the code paths

    def _slice(self) -> float:
        # A short untimed lead-in first, so the timed part measures the
        # host rather than the caches the work before it left.
        _toy_simt(self._np, 300)
        tick = time.perf_counter()
        _toy_simt(self._np, 1500)
        _chase(self._maze, 6000)
        return time.perf_counter() - tick

    def pause(self, count: int = 1) -> None:
        if self._busy:  # a timer tick that arrived during a slice
            return
        self._busy = True
        cpu = time.process_time()
        tick = time.perf_counter()
        try:
            for _ in range(count):
                self.slices.append(self._slice())
        finally:
            self.paused += time.perf_counter() - tick
            self.cpu += time.process_time() - cpu
            self._busy = False

    @contextmanager
    def sampling(self, period: float = SAMPLE_PERIOD_S):
        """Take one slice every *period* seconds while the body runs.

        A SIGALRM interval timer interrupts the work wherever it is, so
        the slices sample the host uniformly over the work's own time
        rather than only between jobs of very different lengths.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self.pause())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_slice(self) -> float:
        """Trimmed mean of the slices taken so far."""
        slices = sorted(self.slices)
        if not slices:
            raise BenchError("no calibration slices were taken")
        return statistics.mean(
            slices[:max(1, round(len(slices) * (1 - CAL_TRIM)))])

    def factor(self) -> float:
        """Multiply a raw host time by this to get reference seconds."""
        return CAL_REFERENCE_S / self.mean_slice()


# ---------------------------------------------------------------------------
# Rounds, statistics and process accounting


@dataclass
class Round:
    """Raw measurements of one timed round (host seconds)."""

    wall: float
    cpu: float
    jobs: int
    instructions: int
    latencies: List[float] = field(default_factory=list)
    #: Per latency, the mean calibration slice taken while that job ran;
    #: empty when only the run-wide calibration applies.
    latency_slices: List[float] = field(default_factory=list)
    #: perf_counter() at the start and end of the timed phase.
    window: Tuple[float, float] = (0.0, 0.0)
    #: Largest RSS of the benchmark's processes so far (MiB).
    peak_rss_mb: float = 0.0



def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def self_peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def host_info() -> Dict[str, object]:
    import platform

    import numpy

    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_rounds(one_round, budget: float, minimum: int = 1) -> list:
    """Call ``one_round(index)`` until *budget* seconds are used: always
    *minimum* times, then only while the median round so far still ends
    inside the budget."""
    rounds: list = []
    spent: List[float] = []
    start = time.perf_counter()
    while (len(rounds) < minimum
           or time.perf_counter() - start + median(spent) <= budget):
        tick = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        spent.append(time.perf_counter() - tick)
        log(f"round {len(rounds)}: {spent[-1]:.3f}s, timed "
            f"{rounds[-1].wall:.3f}s raw, {rounds[-1].jobs} job(s)")
    return rounds
