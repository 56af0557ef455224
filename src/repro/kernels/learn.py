"""Search/learning workloads (paper Table 1: Bsearch, BP, HMM, SRD).

Binary search branches on every probe; the back-propagation layer
diverges on activation sign; the Viterbi step diverges on running-max
updates; SRAD (speckle-reducing anisotropic diffusion) clamps its
diffusion coefficient through data-dependent branches.
"""

from __future__ import annotations

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, given


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
    b = KernelBuilder("bp", simd_width)
    gid = b.global_id()
    s_w = b.surface_arg("weights")
    s_x = b.surface_arg("inputs")
    s_y = b.surface_arg("outputs")
    nin = b.scalar_arg("nin", DType.I32)

    acc = b.vreg(DType.F32)
    b.mov(acc, 0.0)
    base = b.vreg(DType.I32)
    b.mul(base, gid, nin)
    i = b.vreg(DType.I32)
    b.mov(i, 0)
    addr = b.vreg(DType.I32)
    w = b.vreg(DType.F32)
    x = b.vreg(DType.F32)
    b.do_()
    b.add(addr, base, i)
    b.shl(addr, addr, 2)
    b.load(w, addr, s_w)
    b.shl(addr, i, 2)
    b.load(x, addr, s_x)
    b.mad(acc, w, x, acc)
    b.add(i, i, 1)
    more = b.cmp(CmpOp.LT, i, nin)
    b.while_(more)

    # Leaky ReLU: negative activations take a heavier path (the paper's
    # BP kernel diverges on the sigmoid-derivative branch similarly).
    neg = b.cmp(CmpOp.LT, acc, 0.0)
    with b.if_(neg):
        b.mul(acc, acc, 0.01)
        b.exp(w, acc)  # extra EM work on the negative path
        b.mad(acc, w, 1e-6, acc)
        b.else_()
        pass  # identity on the positive path
    out_addr = b.vreg(DType.I32)
    b.shl(out_addr, gid, 2)
    b.store(acc, out_addr, s_y)
    program = b.finish()

    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((neurons, inputs)).astype(np.float32) / inputs
    x = rng.standard_normal(inputs).astype(np.float32)
    y = np.zeros(neurons, dtype=np.float32)

    def check(buffers):
        acts = (weights.astype(np.float64) @ x).astype(np.float32)
        negative = acts < 0
        leaky = acts * np.float32(0.01)
        ref = np.where(
            negative,
            leaky + np.exp(leaky) * np.float32(1e-6),
            acts,
        ).astype(np.float32)
        np.testing.assert_allclose(buffers["outputs"], ref, rtol=2e-3,
                                   atol=2e-4)

    return Workload(
        name="bp",
        program=program,
        buffers={"weights": weights.reshape(-1), "inputs": x, "outputs": y},
        steps=[LaunchStep(global_size=neurons, scalars={"nin": inputs})],
        check=check,
        category="divergent",
        description="neural layer with leaky-ReLU sign divergence",
    )


def hmm_viterbi(sequences: int = 256, timesteps: int = 12,
                simd_width: int = 16, seed: int = 82) -> Workload:
    """HMM: 4-state Viterbi per lane with branchy running-max updates."""
    num_states = 4
    b = KernelBuilder("hmm", simd_width)
    gid = b.global_id()
    s_obs = b.surface_arg("obs")  # per (sequence, t): observation in {0,1}
    s_trans = b.surface_arg("trans")  # log transition, 4x4
    s_emit = b.surface_arg("emit")  # log emission, 4x2
    s_out = b.surface_arg("loglik")
    steps_n = b.scalar_arg("T", DType.I32)

    v = [b.vreg(DType.F32) for _ in range(num_states)]
    for reg in v:
        b.mov(reg, np.log(1.0 / num_states))
    t = b.vreg(DType.I32)
    b.mov(t, 0)
    obs = b.vreg(DType.I32)
    addr = b.vreg(DType.I32)
    trans_v = b.vreg(DType.F32)
    emit_v = b.vreg(DType.F32)
    cand = b.vreg(DType.F32)
    best = b.vreg(DType.F32)
    new_v = [b.vreg(DType.F32) for _ in range(num_states)]

    b.do_()
    # obs[t] for this lane's sequence
    b.mul(addr, gid, steps_n)
    b.add(addr, addr, t)
    b.shl(addr, addr, 2)
    b.load(obs, addr, s_obs)
    for s_to in range(num_states):
        b.mov(best, -1e30)
        for s_from in range(num_states):
            taddr = b.vreg(DType.I32)
            b.mov(taddr, (s_from * num_states + s_to) * 4)
            b.load(trans_v, taddr, s_trans)
            b.add(cand, v[s_from], trans_v)
            higher = b.cmp(CmpOp.GT, cand, best)
            with b.if_(higher):
                b.mov(best, cand)
        eaddr = b.vreg(DType.I32)
        b.mov(eaddr, s_to * 2)
        b.add(eaddr, eaddr, obs)
        b.shl(eaddr, eaddr, 2)
        b.load(emit_v, eaddr, s_emit)
        b.add(new_v[s_to], best, emit_v)
    for s_to in range(num_states):
        b.mov(v[s_to], new_v[s_to])
    b.add(t, t, 1)
    more = b.cmp(CmpOp.LT, t, steps_n)
    b.while_(more)

    # loglik = max over final states (branchy again).
    b.mov(best, -1e30)
    for s_idx in range(num_states):
        higher = b.cmp(CmpOp.GT, v[s_idx], best)
        with b.if_(higher):
            b.mov(best, v[s_idx])
    out_addr = b.vreg(DType.I32)
    b.shl(out_addr, gid, 2)
    b.store(best, out_addr, s_out)
    program = b.finish()

    rng = np.random.default_rng(seed)
    trans = np.log(rng.dirichlet(np.ones(num_states), num_states)
                   ).astype(np.float32)
    emit = np.log(rng.dirichlet(np.ones(2), num_states)).astype(np.float32)
    obs = rng.integers(0, 2, (sequences, timesteps)).astype(np.int32)
    loglik = np.zeros(sequences, dtype=np.float32)

    def check(buffers):
        expected = np.zeros(sequences, dtype=np.float32)
        for seq in range(sequences):
            v = np.full(num_states, np.float32(np.log(1.0 / num_states)),
                        dtype=np.float32)
            for t in range(timesteps):
                scores = v[:, None] + trans  # [from, to]
                v = (scores.max(axis=0)
                     + emit[:, obs[seq, t]]).astype(np.float32)
            expected[seq] = v.max()
        np.testing.assert_allclose(buffers["loglik"], expected, rtol=1e-4,
                                   atol=1e-4)

    return Workload(
        name="hmm",
        program=program,
        buffers={"obs": obs.reshape(-1), "trans": trans.reshape(-1),
                 "emit": emit.reshape(-1), "loglik": loglik},
        steps=[LaunchStep(global_size=sequences, scalars={"T": timesteps})],
        check=check,
        category="divergent",
        description="4-state Viterbi with branchy max reductions",
    )


def srad(dim: int = 32, simd_width: int = 16, seed: int = 83) -> Workload:
    """SRD: one SRAD diffusion-coefficient step with clamp branches."""
    b = KernelBuilder("srad", simd_width)
    gid = b.global_id()
    s_img = b.surface_arg("img")
    s_c = b.surface_arg("coeff")
    n = b.scalar_arg("dim", DType.I32)
    q0 = b.scalar_arg("q0", DType.F32)

    row = b.vreg(DType.I32)
    col = b.vreg(DType.I32)
    tmp = b.vreg(DType.I32)
    b.div(row, gid, n)
    b.mul(tmp, row, n)
    b.sub(col, gid, tmp)
    last = b.vreg(DType.I32)
    b.sub(last, n, 1)

    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    center = b.vreg(DType.F32)
    b.load(center, addr, s_img)

    # Clamped neighbour fetch: min/max keep edge lanes in bounds (the
    # Rodinia kernel uses the same replicate-boundary convention).
    grad2 = b.vreg(DType.F32)
    b.mov(grad2, 0.0)
    lap = b.vreg(DType.F32)
    b.mov(lap, 0.0)
    nb = b.vreg(DType.F32)
    nrow = b.vreg(DType.I32)
    ncol = b.vreg(DType.I32)
    naddr = b.vreg(DType.I32)
    diff = b.vreg(DType.F32)
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        b.add(nrow, row, dr)
        b.max_(nrow, nrow, 0)
        b.min_(nrow, nrow, last)
        b.add(ncol, col, dc)
        b.max_(ncol, ncol, 0)
        b.min_(ncol, ncol, last)
        b.mul(naddr, nrow, n)
        b.add(naddr, naddr, ncol)
        b.shl(naddr, naddr, 2)
        b.load(nb, naddr, s_img)
        b.sub(diff, nb, center)
        b.add(lap, lap, diff)
        b.mad(grad2, diff, diff, grad2)

    # q = grad2 / (center^2 + eps); branch: smooth regions diffuse fully,
    # edges (q > q0) shut diffusion off, in between a rational falloff.
    c2 = b.vreg(DType.F32)
    b.mul(c2, center, center)
    b.add(c2, c2, 1e-4)
    q = b.vreg(DType.F32)
    b.div(q, grad2, c2)
    coeff = b.vreg(DType.F32)
    f_edge = b.cmp(CmpOp.GT, q, q0)
    with b.if_(f_edge):
        b.mov(coeff, 0.0)
        b.else_()
        denom = b.vreg(DType.F32)
        b.div(denom, q, q0)
        b.add(denom, denom, 1.0)
        b.div(coeff, 1.0, denom)
    out_addr = b.vreg(DType.I32)
    b.shl(out_addr, gid, 2)
    b.store(coeff, out_addr, s_c)
    program = b.finish()

    rng = np.random.default_rng(seed)
    img = (rng.uniform(0.5, 1.0, (dim, dim))
           + 2.0 * (rng.random((dim, dim)) < 0.15)).astype(np.float32)
    coeff = np.zeros(dim * dim, dtype=np.float32)
    q0_value = 0.5

    def check(buffers):
        f32 = np.float32
        padded = np.pad(img, 1, mode="edge")
        lap = np.zeros((dim, dim), dtype=np.float32)
        grad2 = np.zeros((dim, dim), dtype=np.float32)
        for (r0, r1, c0, c1) in ((0, -2, 1, -1), (2, None, 1, -1),
                                 (1, -1, 0, -2), (1, -1, 2, None)):
            nb = padded[r0:r1, c0:c1]
            diff = (nb - img).astype(np.float32)
            lap += diff
            grad2 += diff * diff
        q = grad2 / (img * img + f32(1e-4))
        smooth = f32(1.0) / (q / f32(q0_value) + f32(1.0))
        expected = np.where(q > q0_value, f32(0.0), smooth).astype(np.float32)
        np.testing.assert_allclose(
            buffers["coeff"].reshape(dim, dim), expected, rtol=1e-3,
            atol=1e-5)

    return Workload(
        name="srad",
        program=program,
        buffers={"img": img.reshape(-1), "coeff": coeff},
        steps=[LaunchStep(global_size=dim * dim,
                          scalars={"dim": dim, "q0": q0_value})],
        check=check,
        category="divergent",
        description="SRAD diffusion coefficient with edge-clamp branches",
    )
