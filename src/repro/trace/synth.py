"""Synthetic execution-mask trace generation.

The paper's trace set (LuxMark, BulletPhysics, Sandra, RightWare,
GLBench, Face-Detection, ...) is proprietary.  The trace methodology,
however, consumes nothing but ``(width, mask)`` streams, so any stream
with matching *mask statistics* exercises the identical analysis path.
A :class:`SyntheticProfile` describes those statistics:

* the SIMD-width mix (e.g. LuxMark kernels are SIMD8 — the paper notes
  the compiler picks SIMD8 under register pressure);
* a histogram over the number of active lanes; and
* a *pattern family* governing where the active lanes sit, which is what
  separates BCC-friendly traces (contiguous, quad-aligned holes) from
  SCC-only traces (scattered or strided lanes).

Generation is deterministic per (profile, seed).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..core.quads import QUAD_WIDTH, mask_from_lanes, validate_width
from .format import TraceEvent


class PatternFamily(enum.Enum):
    """Where the active lanes of a divergent mask are placed."""

    CONTIGUOUS = "contiguous"  # one run of lanes at a random offset
    QUAD_ALIGNED = "quad_aligned"  # whole quads on/off (ideal for BCC)
    SCATTERED = "scattered"  # uniform random lane choice (needs SCC)
    STRIDED = "strided"  # every k-th lane (needs SCC)
    CLUSTERED = "clustered"  # a few short runs (mixed BCC/SCC)


@dataclass(frozen=True)
class SyntheticProfile:
    """Mask statistics of one synthetic workload trace.

    Attributes:
        name: workload label (paper trace name).
        num_instructions: dynamic SIMD instruction count to generate.
        width_mix: mapping SIMD width -> probability.
        active_histogram: mapping active-lane count -> weight, applied
            per instruction *after* the width is chosen (counts above
            the width are clipped to the width).
        pattern_weights: mapping PatternFamily -> weight for divergent
            instructions.
        seed: RNG seed (generation is deterministic).
    """

    name: str
    num_instructions: int
    width_mix: Tuple[Tuple[int, float], ...]
    active_histogram: Tuple[Tuple[int, float], ...]
    pattern_weights: Tuple[Tuple[PatternFamily, float], ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_instructions < 1:
            raise ValueError("num_instructions must be positive")
        for width, _ in self.width_mix:
            validate_width(width)
        if not self.width_mix or not self.active_histogram or not self.pattern_weights:
            raise ValueError("profile distributions must be non-empty")


def _choose(rng: np.random.Generator, items: Sequence, weights: Sequence[float]):
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    idx = rng.choice(len(items), p=weights / total)
    return items[idx]


def _pattern_lanes(rng: np.random.Generator, family: PatternFamily,
                   active: int, width: int) -> List[int]:
    """Pick *active* lane positions within *width* per the family."""
    if active >= width:
        return list(range(width))
    if family is PatternFamily.CONTIGUOUS:
        start = int(rng.integers(0, width - active + 1))
        return list(range(start, start + active))
    if family is PatternFamily.QUAD_ALIGNED:
        # Fill whole quads first, remainder contiguous in the next quad.
        quads = list(rng.permutation(width // QUAD_WIDTH))
        lanes: List[int] = []
        remaining = active
        for q in quads:
            take = min(QUAD_WIDTH, remaining)
            lanes.extend(q * QUAD_WIDTH + i for i in range(take))
            remaining -= take
            if remaining == 0:
                break
        return lanes
    if family is PatternFamily.SCATTERED:
        return list(rng.choice(width, size=active, replace=False))
    if family is PatternFamily.STRIDED:
        stride = int(rng.choice([2, 4]))
        phase = int(rng.integers(0, stride))
        lanes = list(range(phase, width, stride))[:active]
        # Top up from unused lanes if the stride cannot host `active`.
        if len(lanes) < active:
            pool = [l for l in range(width) if l not in lanes]
            extra = rng.choice(len(pool), size=active - len(lanes), replace=False)
            lanes.extend(pool[i] for i in extra)
        return lanes
    if family is PatternFamily.CLUSTERED:
        lanes_set: set = set()
        while len(lanes_set) < active:
            run = int(rng.integers(1, 4))
            start = int(rng.integers(0, width))
            for i in range(run):
                if len(lanes_set) >= active:
                    break
                lanes_set.add((start + i) % width)
        return sorted(lanes_set)
    raise ValueError(f"unknown pattern family {family!r}")  # pragma: no cover


def generate_trace(profile: SyntheticProfile) -> Iterator[TraceEvent]:
    """Yield the deterministic event stream described by *profile*."""
    # crc32, not hash(): str hashes are salted per process
    # (PYTHONHASHSEED), which would make the stream differ run to run.
    rng = np.random.default_rng(profile.seed + zlib.crc32(profile.name.encode()))
    widths = [w for w, _ in profile.width_mix]
    width_w = [p for _, p in profile.width_mix]
    counts = [c for c, _ in profile.active_histogram]
    count_w = [p for _, p in profile.active_histogram]
    families = [f for f, _ in profile.pattern_weights]
    family_w = [p for _, p in profile.pattern_weights]

    for _ in range(profile.num_instructions):
        width = _choose(rng, widths, width_w)
        active = min(_choose(rng, counts, count_w), width)
        if active <= 0:
            active = 1
        if active == width:
            yield TraceEvent(width, (1 << width) - 1)
            continue
        family = _choose(rng, families, family_w)
        lanes = _pattern_lanes(rng, family, active, width)
        yield TraceEvent(width, mask_from_lanes(lanes, width))


def generate_trace_list(profile: SyntheticProfile) -> List[TraceEvent]:
    """Materialized version of :func:`generate_trace`."""
    return list(generate_trace(profile))
