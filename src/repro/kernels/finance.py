"""Finance workloads (paper Table 1: Bscholes, BOP, MCA).

Black-Scholes is the archetypal *coherent* heavy-math kernel; the
binomial lattice is coherent with a long dependent loop; Monte Carlo
Asian-option pricing is *divergent*: each lane's path terminates early
when its running price crosses a barrier, so the path loop sheds lanes
over time — exactly the pattern intra-warp compaction harvests.
"""

from __future__ import annotations

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, uniform

_INV_SQRT_2PI = 0.3989422804014327


def _emit_cnd(b: KernelBuilder, out, x, tmp_regs) -> None:
    """Emit the cumulative-normal-distribution polynomial approximation.

    Standard Abramowitz-Stegun 5-coefficient fit, as used by the
    OpenCL SDK Black-Scholes samples.
    """
    k, poly, pdf, absx = tmp_regs
    b.abs_(absx, x)
    # k = 1 / (1 + 0.2316419 * |x|)
    b.mad(k, absx, 0.2316419, 1.0)
    b.div(k, 1.0, k)
    # poly = k*(a1 + k*(a2 + k*(a3 + k*(a4 + k*a5))))
    b.mad(poly, k, 1.330274429, -1.821255978)
    b.mad(poly, poly, k, 1.781477937)
    b.mad(poly, poly, k, -0.356563782)
    b.mad(poly, poly, k, 0.319381530)
    b.mul(poly, poly, k)
    # pdf = inv_sqrt_2pi * exp(-x^2/2)
    b.mul(pdf, x, x)
    b.mul(pdf, pdf, -0.5)
    b.exp(pdf, pdf)
    b.mul(pdf, pdf, _INV_SQRT_2PI)
    # out = 1 - pdf*poly; for x < 0, out = 1 - out
    b.mul(out, pdf, poly)
    b.sub(out, 1.0, out)
    f = b.cmp(CmpOp.LT, x, 0.0)
    neg = poly  # reuse
    b.sub(neg, 1.0, out)
    b.sel(out, f, neg, out)


def black_scholes(n: int = 2048, simd_width: int = 16) -> Workload:
    """Bscholes-N: European call pricing; fully coherent EM-heavy math."""
    b = KernelBuilder("bscholes", simd_width)
    gid = b.global_id()
    sS, sK, sT, sC = (b.surface_arg(x) for x in ("S", "K", "T", "call"))
    riskfree = b.scalar_arg("r", DType.F32)
    vol = b.scalar_arg("v", DType.F32)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    S = b.vreg(DType.F32)
    K = b.vreg(DType.F32)
    T = b.vreg(DType.F32)
    b.load(S, addr, sS)
    b.load(K, addr, sK)
    b.load(T, addr, sT)

    sqrtT = b.vreg(DType.F32)
    b.sqrt(sqrtT, T)
    d1 = b.vreg(DType.F32)
    b.div(d1, S, K)
    b.log(d1, d1)
    vsq = b.vreg(DType.F32)
    b.mul(vsq, vol, vol)
    b.mul(vsq, vsq, 0.5)
    drift = b.vreg(DType.F32)
    b.add(drift, riskfree, vsq)
    b.mad(d1, drift, T, d1)
    denom = b.vreg(DType.F32)
    b.mul(denom, vol, sqrtT)
    b.div(d1, d1, denom)
    d2 = b.vreg(DType.F32)
    b.sub(d2, d1, denom)

    tmp = tuple(b.vreg(DType.F32) for _ in range(4))
    nd1 = b.vreg(DType.F32)
    nd2 = b.vreg(DType.F32)
    _emit_cnd(b, nd1, d1, tmp)
    _emit_cnd(b, nd2, d2, tmp)

    disc = b.vreg(DType.F32)
    b.mul(disc, riskfree, T)
    b.mul(disc, disc, -1.0)
    b.exp(disc, disc)
    call = b.vreg(DType.F32)
    b.mul(call, K, disc)
    b.mul(call, call, nd2)
    right = b.vreg(DType.F32)
    b.mul(right, S, nd1)
    b.sub(call, right, call)
    b.store(call, addr, sC)
    program = b.finish()

    rng = np.random.default_rng(10)
    S = rng.uniform(10, 100, n).astype(np.float32)
    K = rng.uniform(10, 100, n).astype(np.float32)
    T = rng.uniform(0.2, 2.0, n).astype(np.float32)
    call = np.zeros(n, dtype=np.float32)
    r, v = 0.05, 0.3

    def check(buffers):
        from scipy.stats import norm  # available offline per environment

        d1 = (np.log(S / K) + (r + v * v / 2) * T) / (v * np.sqrt(T))
        d2 = d1 - v * np.sqrt(T)
        ref = S * norm.cdf(d1) - K * np.exp(-r * T) * norm.cdf(d2)
        np.testing.assert_allclose(buffers["call"], ref, rtol=5e-3, atol=5e-3)

    return Workload(
        name="bscholes",
        program=program,
        buffers={"S": S, "K": K, "T": T, "call": call},
        steps=[LaunchStep(global_size=n, scalars={"r": r, "v": v})],
        check=check,
        category="coherent",
        description="Black-Scholes European option pricing",
    )


def binomial_option(n: int = 512, depth: int = 16, simd_width: int = 16) -> Workload:
    """BOP: binomial lattice backward induction; coherent fixed loop."""
    up = 1.05
    prob = 0.55

    @dsl.kernel(n=n, simd_width=simd_width, seed=11, name="bop",
                category="coherent",
                description="binomial option pricing lattice")
    def bop(k, S=dsl.In(init=uniform(10, 100)), price=dsl.Out()):
        s = k.var(S[k.gid])
        # Simplified CRR lattice with fixed up/down factors; each
        # work-item walks its own `depth`-step induction in registers.
        value = k.var(0.0, "f32")
        level = k.var(0, "i32")
        growth = k.var(s)
        with k.while_(level < depth):
            # value = prob * value*up + (1-prob) * growth
            scaled = k.var(value * up)
            scaled.set(scaled * prob)
            value.set(growth * (1.0 - prob) + scaled)
            growth.set(growth * (1.0 / up))
            level.set(level + 1)
        price[k.gid] = value

    return bop()


def monte_carlo_asian(n: int = 1024, max_steps: int = 24, simd_width: int = 16) -> Workload:
    """MCA: barrier-terminated price paths; lanes retire at different steps.

    Each lane evolves a pseudo-random walk and *breaks out* of the path
    loop when it crosses the knock-out barrier, leaving a dwindling
    active mask — a classic divergent workload.
    """

    @dsl.kernel(n=n, simd_width=simd_width, seed=12, name="mca",
                category="divergent",
                description="Monte Carlo barrier-option paths with early "
                            "lane exit")
    def mca(k, S=dsl.In(init=uniform(50, 95)), payoff=dsl.Out(),
            barrier=dsl.Scalar(default=100.0)):
        s = k.var(S[k.gid])
        price = k.var(s)
        total = k.var(0.0, "f32")
        step = k.var(0, "i32")
        # xorshift-style per-lane RNG state seeded from gid
        state = k.var(k.gid * (2654435761 & 0x7FFFFFFF) + 12345)
        with k.while_(step < max_steps):
            # advance RNG: state = state*1664525 + 1013904223 (LCG)
            state.set(state * 1664525)
            state.set(state + 1013904223)
            noise = k.var(state >> 16)
            noise.set(noise & 0xFF)
            # shock in [0.96, 1.0425]: price *= 0.96 + noise/255 * 0.0825
            shock = k.var(dsl.cast(noise, "f32"))
            shock.set(shock * (0.0825 / 255.0) + 0.96)
            price.set(price * shock)
            total.set(total + price)
            step.set(step + 1)
            # knock-out: lanes whose price crossed the barrier exit early
            k.break_if(price > barrier)
        steps = k.var(dsl.cast(step, "f32"))
        steps.set(dsl.maximum(steps, 1.0))
        payoff[k.gid] = total / steps

    return mca()
