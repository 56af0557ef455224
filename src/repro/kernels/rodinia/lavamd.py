"""LavaMD: particle interactions with a cutoff branch (Rodinia).

Every particle accumulates forces from a candidate neighbour list; the
cutoff test inside the loop turns lanes off irregularly.  In the paper
(Figure 12) lavaMD shows EU-cycle savings that do not translate into
total-time savings — even a perfect L3 does not help — because its
execution is dominated by workload imbalance and latency, which this
kernel reproduces via skewed per-particle neighbour counts.
"""

from __future__ import annotations

import numpy as np

from ... import dsl
from ..workload import Workload, given


def lavamd(num_particles: int = 512, max_neighbors: int = 24,
           simd_width: int = 16, seed: int = 32) -> Workload:
    """Cutoff-bounded particle force accumulation over neighbour lists."""
    rng = np.random.default_rng(seed)
    coords = [rng.uniform(0, 4, num_particles) for _ in range(3)]
    # Skewed neighbour counts: a minority of particles do most work.
    counts = np.minimum(rng.geometric(0.12, num_particles), max_neighbors)
    neighbors = rng.integers(0, num_particles, num_particles * max_neighbors)

    @dsl.kernel(n=num_particles, simd_width=simd_width, seed=seed,
                name="lavamd", category="divergent",
                description="particle force loop with cutoff divergence "
                            "(Rodinia lavaMD)")
    def lava(k, px=dsl.In(init=given(coords[0])),
             py=dsl.In(init=given(coords[1])),
             pz=dsl.In(init=given(coords[2])),
             neighbors=dsl.In("i32", size=neighbors.size,
                              init=given(neighbors)),
             counts=dsl.In("i32", init=given(counts)), force=dsl.Out(),
             max_nb=dsl.Scalar("i32", default=max_neighbors),
             cutoff2=dsl.Scalar(default=1.5)):
        x, y, z = k.var(px[k.gid]), k.var(py[k.gid]), k.var(pz[k.gid])
        count = k.var(counts[k.gid])
        total = k.var(0.0, "f32")
        i = k.var(0, "i32")
        base = k.var(k.gid * max_nb)
        with k.if_(count > 0):
            with k.while_(i < count):
                nb = k.var(neighbors[base + i])
                ox, oy, oz = k.var(px[nb]), k.var(py[nb]), k.var(pz[nb])
                dx, dy, dz = k.var(x - ox), k.var(y - oy), k.var(z - oz)
                r2 = k.var(dx * dx)
                r2.set(dy * dy + r2)
                r2.set(dz * dz + r2)
                with k.if_(r2 < cutoff2):
                    # contrib = exp(-2 r2) / sqrt(r2 + 0.25): short range
                    contrib = k.var(r2 * -2.0)
                    contrib.set(dsl.exp(contrib))
                    dx.set(r2 + 0.25)
                    dx.set(dsl.sqrt(dx))
                    contrib.set(contrib / dx)
                    total.set(total + contrib)
                i.set(i + 1)
        force[k.gid] = total

    return lava()
