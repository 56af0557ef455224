"""Image-processing workloads (paper Table 1: BF, SblFr, Gnoise).

Box filtering is coherent except at image borders; the Sobel filter adds
a threshold branch (edge vs. flat) that diverges on image content;
Gaussian-noise generation uses a rejection loop that retires lanes at
different iterations (Marsaglia polar method), making it divergent.
"""

from __future__ import annotations

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.registers import FlagRef
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, given, grid_coords, uniform


def _all_of(k, *conds):
    """An i32 variable: 1 where every condition holds, else 0.

    One SEL per condition ANDed together (no short circuit), so the
    conjunction never diverges.
    """
    one = dsl.Const(1, "i32")
    acc = k.var(dsl.select(conds[0], one, 0))
    term = k.var(dsl.select(conds[1], one, 0))
    acc.set(acc & term)
    for cond in conds[2:]:
        term.set(dsl.select(cond, one, 0))
        acc.set(acc & term)
    return acc


def box_filter(dim: int = 48, simd_width: int = 16, seed: int = 40) -> Workload:
    """BF: 3x3 mean filter; interior-coherent, border-divergent."""

    @dsl.kernel(n=dim * dim, simd_width=simd_width, seed=seed,
                name="boxfilter", category="coherent",
                description="3x3 box filter with border handling")
    def boxfilter(k, inp=dsl.In(init=uniform(0, 255)), out=dsl.Out(),
                  dim=dsl.Scalar("i32", default=dim)):
        row, col = grid_coords(k, dim)
        last = k.var(dim - 1)
        acc = k.var(0.0, "f32")
        cnt = k.var(0.0, "f32")
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nrow = k.var(row + dr)
                ncol = k.var(col + dc)
                inside = _all_of(k, nrow >= 0, nrow <= last, ncol >= 0,
                                 ncol <= last)
                with k.if_(inside != 0):
                    acc.set(acc + inp[nrow * dim + ncol])
                    cnt.set(cnt + 1.0)
        acc.set(acc / cnt)
        out[k.gid] = acc

    return boxfilter()


def sobel(dim: int = 48, threshold: float = 120.0, simd_width: int = 16,
          seed: int = 41) -> Workload:
    """SblFr: Sobel gradient with an edge-threshold branch (divergent)."""
    rng = np.random.default_rng(seed)
    img = (rng.uniform(0, 64, (dim, dim))
           + 128 * (rng.random((dim, dim)) < 0.2)).astype(np.float32)
    kx = {(-1, -1): -1, (-1, 1): 1, (0, -1): -2, (0, 1): 2, (1, -1): -1,
          (1, 1): 1}
    ky = {(-1, -1): -1, (-1, 0): -2, (-1, 1): -1, (1, -1): 1, (1, 0): 2,
          (1, 1): 1}

    @dsl.kernel(n=dim * dim, simd_width=simd_width, seed=seed, name="sobel",
                category="divergent",
                description="Sobel filter with edge-threshold divergence")
    def sobel_(k, inp=dsl.In(init=given(img.reshape(-1))), out=dsl.Out(),
               dim=dsl.Scalar("i32", default=dim),
               threshold=dsl.Scalar(default=threshold)):
        row, col = grid_coords(k, dim)
        last = k.var(dim - 1)
        out_val = k.var(0.0, "f32")
        # Interior pixels only; borders stay zero (divergent guard).
        interior = _all_of(k, row > 0, row < last, col > 0, col < last)
        with k.if_(interior != 0):
            gx = k.var(0.0, "f32")
            gy = k.var(0.0, "f32")
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    wx = kx.get((dr, dc), 0)
                    wy = ky.get((dr, dc), 0)
                    if wx == 0 and wy == 0:
                        continue
                    naddr = k.var(row + dr)
                    naddr.set(naddr * dim)
                    naddr.set(naddr + col)
                    naddr.set(naddr + dc)
                    val = k.var(inp[naddr])
                    if wx:
                        gx.set(val * float(wx) + gx)
                    if wy:
                        gy.set(val * float(wy) + gy)
            mag = k.var(gx * gx)
            mag.set(gy * gy + mag)
            mag.set(dsl.sqrt(mag))
            # Edge pixels get an expensive tone-map; flat pixels a copy.
            with k.if_(mag > threshold):
                out_val.set(mag * (1.0 / 1445.0))
                out_val.set(dsl.log(out_val))
                out_val.set(out_val * 0.1 + 1.0)
                out_val.set(dsl.maximum(out_val, 0.0))
                k.else_()
                out_val.set(mag * (1.0 / 1445.0))
        out[k.gid] = out_val

    return sobel_()


def gaussian_noise(n: int = 1024, simd_width: int = 16, seed: int = 42,
                   max_tries: int = 12) -> Workload:
    """Gnoise: Marsaglia polar rejection sampling; lanes retire unevenly."""
    b = KernelBuilder("gnoise", simd_width)
    gid = b.global_id()
    so = b.surface_arg("out")
    state = b.vreg(DType.I32)
    b.mad(state, gid, 1103515245 & 0x7FFFFFFF, 12345)
    u = b.vreg(DType.F32)
    v = b.vreg(DType.F32)
    s = b.vreg(DType.F32)
    tries = b.vreg(DType.I32)
    b.mov(tries, 0)
    accepted_s = b.vreg(DType.F32)
    b.mov(accepted_s, 0.5)  # fallback if no accept within max_tries
    accepted_u = b.vreg(DType.F32)
    b.mov(accepted_u, 0.5)
    bits = b.vreg(DType.I32)
    b.do_()
    for comp in (u, v):
        b.mul(state, state, 1664525)
        b.add(state, state, 1013904223)
        b.shr(bits, state, 16)
        b.and_(bits, bits, 0x7FFF)
        b.cvt(comp, bits)
        b.mad(comp, comp, 2.0 / 32767.0, -1.0)
    b.mul(s, u, u)
    b.mad(s, v, v, s)
    # Accept when 0 < s < 1; rejected lanes iterate again.
    f_ok = b.cmp(CmpOp.LT, s, 1.0)
    g_ok = b.vreg(DType.I32)
    b.sel(g_ok, f_ok, 1, 0)
    f_pos = b.cmp(CmpOp.GT, s, 1e-12)
    g_pos = b.vreg(DType.I32)
    b.sel(g_pos, f_pos, 1, 0)
    b.and_(g_ok, g_ok, g_pos)
    f_acc = b.cmp(CmpOp.NE, g_ok, 0)
    b.mov(accepted_s, s, pred=f_acc)
    b.mov(accepted_u, u, pred=f_acc)
    b.break_(f_acc)
    b.add(tries, tries, 1)
    f_more = b.cmp(CmpOp.LT, tries, max_tries, flag=FlagRef(1))
    b.while_(f_more)
    # z = u * sqrt(-2 ln(s) / s)
    z = b.vreg(DType.F32)
    b.log(z, accepted_s)
    b.mul(z, z, -2.0)
    b.div(z, z, accepted_s)
    b.sqrt(z, z)
    b.mul(z, z, accepted_u)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    b.store(z, addr, so)
    program = b.finish()

    out = np.zeros(n, dtype=np.float32)

    def check(buffers):
        ref = _gnoise_reference(n, max_tries)
        np.testing.assert_allclose(buffers["out"], ref, rtol=1e-3, atol=1e-4)

    return Workload(
        name="gnoise",
        program=program,
        buffers={"out": out},
        steps=[LaunchStep(global_size=n)],
        check=check,
        category="divergent",
        description="Gaussian noise via polar rejection sampling",
    )


def _gnoise_reference(n: int, max_tries: int) -> np.ndarray:
    f32 = np.float32
    gid = np.arange(n, dtype=np.int64)
    state = (gid * (1103515245 & 0x7FFFFFFF) + 12345) & 0xFFFFFFFF
    state = np.where(state >= 2**31, state - 2**32, state)
    acc_s = np.full(n, 0.5, dtype=np.float32)
    acc_u = np.full(n, 0.5, dtype=np.float32)
    alive = np.ones(n, dtype=bool)

    def lcg(state, alive):
        nxt = (state * 1664525 + 1013904223) & 0xFFFFFFFF
        nxt = np.where(nxt >= 2**31, nxt - 2**32, nxt)
        state = np.where(alive, nxt, state)
        bits = (state >> 16) & 0x7FFF
        comp = bits.astype(np.float32) * f32(2.0 / 32767.0) + f32(-1.0)
        return state, comp

    for _ in range(max_tries):
        if not alive.any():
            break
        state, u = lcg(state, alive)
        state, v = lcg(state, alive)
        s = (u * u + v * v).astype(np.float32)
        accept = alive & (s < 1.0) & (s > 1e-12)
        acc_s = np.where(accept, s, acc_s)
        acc_u = np.where(accept, u, acc_u)
        alive &= ~accept
    z = acc_u * np.sqrt((np.log(acc_s) * f32(-2.0) / acc_s).astype(np.float32))
    return z.astype(np.float32)
