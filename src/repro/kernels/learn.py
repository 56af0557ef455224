"""Search/learning workloads (paper Table 1: Bsearch, BP, HMM, SRD).

Binary search branches on every probe; the back-propagation layer
diverges on activation sign; the Viterbi step diverges on running-max
updates; SRAD (speckle-reducing anisotropic diffusion) clamps its
diffusion coefficient through data-dependent branches.

All four are defined once in :mod:`repro.dsl` and checked bit-exactly
by its traced reference.  BP's positive path is an empty ``k.else_()``
arm (the ELSE is still emitted); HMM reads its transition table at
constant byte offsets and SRAD recomputes its output address, both
through ``buf.bytes``.
"""

from __future__ import annotations

import numpy as np

from .. import dsl
from .workload import Workload, assign, given, grid_coords


def binary_search(num_keys: int = 1024, table_size: int = 1024,
                  simd_width: int = 16, seed: int = 80) -> Workload:
    """Bsearch: branchy lo/hi bisection over a sorted table."""
    steps_needed = int(np.ceil(np.log2(table_size))) + 1
    rng = np.random.default_rng(seed)
    table = np.sort(rng.uniform(0, 1000, table_size)).astype(np.float32)
    keys = rng.uniform(-10, 1010, num_keys).astype(np.float32)

    @dsl.kernel(n=num_keys, simd_width=simd_width, seed=seed, name="bsearch",
                category="divergent",
                description="binary search with branchy bisection")
    def bsearch(k, table=dsl.In(size=table_size, init=given(table)),
                keys=dsl.In(init=given(keys)), found=dsl.Out("i32"),
                n=dsl.Scalar("i32", default=table_size)):
        key = k.var(keys[k.gid])
        lo = k.var(0, "i32")
        hi = k.var(n)
        it = k.var(0, "i32")
        nmax = k.var(n - 1)
        with k.while_(it < steps_needed):
            mid = k.var(lo + hi)
            mid.set(mid >> 1)
            # Clamp the probe: once lo == hi == n (key above the whole
            # table) the extra fixed-trip iterations re-read the last
            # entry harmlessly.
            mid.set(dsl.minimum(mid, nmax))
            with k.if_(table[mid] < key):
                lo.set(mid + 1)
                k.else_()
                hi.set(mid)
            it.set(it + 1)
        found[k.gid] = lo

    return bsearch()


def backprop_layer(neurons: int = 256, inputs: int = 24,
                   simd_width: int = 16, seed: int = 81) -> Workload:
    """BP: forward layer with a leaky-ReLU branch on the activation sign."""
    rng = np.random.default_rng(seed)
    weight_data = (rng.standard_normal((neurons, inputs)).astype(np.float32)
                   / inputs).reshape(-1)
    x_data = rng.standard_normal(inputs).astype(np.float32)

    @dsl.kernel(n=neurons, simd_width=simd_width, seed=seed, name="bp",
                category="divergent",
                description="neural layer with leaky-ReLU sign divergence")
    def bp(k, weights=dsl.In(size=neurons * inputs, init=given(weight_data)),
           inputs=dsl.In(size=inputs, init=given(x_data)),
           outputs=dsl.Out(), nin=dsl.Scalar("i32", default=inputs)):
        acc = k.var(0.0, "f32")
        base = k.var(k.gid * nin)
        i = k.var(0, "i32")
        with k.while_(i < nin):
            acc.set(weights[base + i] * inputs[i] + acc)
            i.set(i + 1)
        # Leaky ReLU: negative activations take a heavier path (the
        # paper's BP kernel diverges on the sigmoid-derivative branch
        # similarly), with extra EM work; the positive path is the
        # identity, an empty ELSE arm.
        with k.if_(acc < 0.0):
            acc.set(acc * 0.01)
            acc.set(dsl.exp(acc) * 1e-6 + acc)
            k.else_()
        outputs[k.gid] = acc

    return bp()


def hmm_viterbi(sequences: int = 256, timesteps: int = 12,
                simd_width: int = 16, seed: int = 82) -> Workload:
    """HMM: 4-state Viterbi per lane with branchy running-max updates."""
    num_states = 4
    rng = np.random.default_rng(seed)
    trans_data = np.log(rng.dirichlet(np.ones(num_states), num_states)
                        ).astype(np.float32).reshape(-1)
    emit_data = np.log(rng.dirichlet(np.ones(2), num_states)
                       ).astype(np.float32).reshape(-1)
    obs_data = rng.integers(0, 2, sequences * timesteps).astype(np.int32)

    @dsl.kernel(n=sequences, simd_width=simd_width, seed=seed, name="hmm",
                category="divergent",
                description="4-state Viterbi with branchy max reductions")
    def hmm(k,
            # per (sequence, t): observation in {0,1}
            obs=dsl.In("i32", size=sequences * timesteps,
                       init=given(obs_data)),
            trans=dsl.In(size=num_states ** 2, init=given(trans_data)),
            emit=dsl.In(size=num_states * 2, init=given(emit_data)),
            loglik=dsl.Out(), T=dsl.Scalar("i32", default=timesteps)):
        v = [k.var(float(np.log(1.0 / num_states)), "f32")
             for _ in range(num_states)]
        t = k.var(0, "i32")
        with k.while_(t < T):
            at = k.var(k.gid * T)
            at.set(at + t)
            o = k.var(obs[at])
            new_v = []
            best = k.var(-1e30, "f32")
            for s_to in range(num_states):
                if s_to:
                    best.set(-1e30)
                for s_from in range(num_states):
                    # log transition s_from -> s_to at a constant address
                    cand = k.var(v[s_from] + trans.bytes[
                        (s_from * num_states + s_to) * 4])
                    with k.if_(cand > best):
                        best.set(cand)
                e = k.var(s_to * 2, "i32")
                e.set(e + o)
                new_v.append(k.var(best + emit[e]))
            for s_to in range(num_states):
                v[s_to].set(new_v[s_to])
            t.set(t + 1)
        # loglik = max over final states (branchy again).
        best.set(-1e30)
        for s_idx in range(num_states):
            with k.if_(v[s_idx] > best):
                best.set(v[s_idx])
        loglik[k.gid] = best

    return hmm()


def srad(dim: int = 32, simd_width: int = 16, seed: int = 83) -> Workload:
    """SRD: one SRAD diffusion-coefficient step with clamp branches."""
    rng = np.random.default_rng(seed)
    img_data = (rng.uniform(0.5, 1.0, (dim, dim))
                + 2.0 * (rng.random((dim, dim)) < 0.15)
                ).astype(np.float32).reshape(-1)

    @dsl.kernel(n=dim * dim, simd_width=simd_width, seed=seed, name="srad",
                category="divergent",
                description="SRAD diffusion coefficient with edge-clamp "
                            "branches")
    def srad(k, img=dsl.In(init=given(img_data)), coeff=dsl.Out(),
             dim=dsl.Scalar("i32", default=dim),
             q0=dsl.Scalar("f32", default=0.5)):
        row, col = grid_coords(k, dim)
        last = k.var(dim - 1)
        center = k.var(img[k.gid])
        # Clamped neighbour fetch: min/max keep edge lanes in bounds (the
        # Rodinia kernel uses the same replicate-boundary convention).
        grad2 = k.var(0.0, "f32")
        lap = k.var(0.0, "f32")
        nrow = ncol = None
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nrow = assign(k, nrow, row + dr)
            nrow.set(dsl.maximum(nrow, 0))
            nrow.set(dsl.minimum(nrow, last))
            ncol = assign(k, ncol, col + dc)
            ncol.set(dsl.maximum(ncol, 0))
            ncol.set(dsl.minimum(ncol, last))
            na = k.var(nrow * dim)  # two statements, not one MAD
            na.set(na + ncol)
            diff = k.var(img[na] - center)
            lap.set(lap + diff)
            grad2.set(diff * diff + grad2)
        # q = grad2 / (center^2 + eps); branch: smooth regions diffuse
        # fully, edges (q > q0) shut diffusion off, in between a
        # rational falloff.
        c2 = k.var(center * center)
        c2.set(c2 + 1e-4)
        q = k.var(grad2 / c2)
        with k.if_(q > q0):
            c = k.var(0.0, "f32")
            k.else_()
            denom = k.var(q / q0)
            denom.set(denom + 1.0)
            c.set(1.0 / denom)
        # The gid address is recomputed here, not reused from the load.
        coeff.bytes[k.gid << 2] = c

    return srad()
