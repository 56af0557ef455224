"""Particle filter resampling (Rodinia).

The resampling step: each output particle walks the weight CDF until
it passes its own quantile.  The walk length is data
dependent, so lanes retire from the search loop at different
iterations — steady control divergence on top of streaming loads.
"""

from __future__ import annotations

import numpy as np

from ... import dsl
from ..workload import Workload, given


def particlefilter(num_particles: int = 256, simd_width: int = 16,
                   seed: int = 34) -> Workload:
    """Multinomial resampling over a random weight distribution."""
    rng = np.random.default_rng(seed)
    weights = rng.exponential(1.0, num_particles).astype(np.float64)
    weights /= weights.sum()
    cdf_data = np.cumsum(weights).astype(np.float32)
    cdf_data[-1] = 1.0
    # Multinomial resampling: independent quantiles per particle, so
    # adjacent lanes walk very different CDF prefixes (heavy loop
    # divergence); systematic resampling would sort these and make the
    # warp nearly lockstep.
    u_data = rng.uniform(0.0, 1.0, num_particles)

    @dsl.kernel(n=num_particles, simd_width=simd_width, seed=seed,
                name="particlefilter", category="divergent",
                description="particle-filter systematic resampling (Rodinia)")
    def resample(k, cdf=dsl.In(init=given(cdf_data)),
                 u=dsl.In(init=given(u_data)), indices=dsl.Out("i32"),
                 n=dsl.Scalar("i32", default=num_particles)):
        quantile = k.var(u[k.gid])
        j = k.var(0, "i32")
        with k.while_(j < n):
            k.break_if(cdf[j] >= quantile)
            j.set(j + 1)
        j.set(dsl.minimum(j, n))  # clamp the never-found case (u == 1.0)
        indices[k.gid] = j

    return resample()
