"""Signal/media workloads (paper Table 1: DCT8, FWHT, DWTH, SCnv, Bsort, AES).

The transforms (DCT, Walsh-Hadamard, Haar) are coherent register
kernels; simple convolution is coherent except at its clamped edges;
bitonic sort's compare-and-swap network predicates half the lanes each
pass in alternating stride patterns (a showcase for SCC); the AES round
gathers S-box entries per lane — coherent control but memory divergent.

DCT8, FWHT, SCnv and AES are defined once in :mod:`repro.dsl`, whose
traced reference checks them bit-exactly; DCT8 and FWHT address their
8-float blocks by byte offset (``buf.bytes[base + 4 * i]``).  The
multi-launch DWTH and Bsort stay hand-assembled with a KernelBuilder.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.registers import FlagRef
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, assign, given


def dct8(blocks: int = 192, simd_width: int = 16, seed: int = 70) -> Workload:
    """DCT8: 8-point DCT-II per work-item, fully unrolled (coherent)."""
    rng = np.random.default_rng(seed)
    inp_data = rng.uniform(-1, 1, blocks * 8).astype(np.float32)

    @dsl.kernel(n=blocks, simd_width=simd_width, seed=seed, name="dct8",
                category="coherent",
                description="8-point DCT-II per work-item")
    def dct8(k, inp=dsl.In(size=blocks * 8, init=given(inp_data)),
             out=dsl.Out(size=blocks * 8)):
        base = k.var(k.gid << 5)  # block byte offset: 8 floats = 32 bytes
        xs = [k.var(inp.bytes[base + i * 4]) for i in range(8)]
        acc = k.var(0.0, "f32")
        for freq in range(8):
            scale = math.sqrt(1.0 / 8) if freq == 0 else math.sqrt(2.0 / 8)
            if freq:
                acc.set(0.0)
            for n_idx, x in enumerate(xs):
                coeff = scale * math.cos(math.pi / 8 * (n_idx + 0.5) * freq)
                acc.set(x * coeff + acc)
            out.bytes[base + freq * 4] = acc

    return dct8()


def fwht(groups: int = 256, simd_width: int = 16, seed: int = 71) -> Workload:
    """FWHT: 8-point fast Walsh-Hadamard transform per work-item."""
    rng = np.random.default_rng(seed)
    inp_data = rng.uniform(-1, 1, groups * 8).astype(np.float32)

    @dsl.kernel(n=groups, simd_width=simd_width, seed=seed, name="fwht",
                category="coherent",
                description="8-point fast Walsh-Hadamard transform")
    def fwht(k, inp=dsl.In(size=groups * 8, init=given(inp_data)),
             out=dsl.Out(size=groups * 8)):
        base = k.var(k.gid << 5)
        xs = [k.var(inp.bytes[base + i * 4]) for i in range(8)]
        tmp = None
        for stage in (1, 2, 4):
            for i in range(8):
                if i & stage:
                    continue
                j = i | stage
                tmp = assign(k, tmp, xs[i] + xs[j])
                xs[j].set(xs[i] - xs[j])
                xs[i].set(tmp)
        for i, x in enumerate(xs):
            out.bytes[base + i * 4] = x

    return fwht()


def haar_dwt(n: int = 1024, levels: int = 3, simd_width: int = 16,
             seed: int = 72) -> Workload:
    """DWTH: Haar wavelet, one launch per level; shrinking launches leave
    dispatch-mask tails."""
    b = KernelBuilder("dwth", simd_width)
    gid = b.global_id()
    s_in, s_avg, s_diff = (b.surface_arg(x) for x in ("inp", "avg", "diff"))
    a = b.vreg(DType.F32)
    c = b.vreg(DType.F32)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 3)  # element pair: 8 bytes
    b.load(a, addr, s_in)
    b.add(addr, addr, 4)
    b.load(c, addr, s_in)
    avg = b.vreg(DType.F32)
    diff = b.vreg(DType.F32)
    b.add(avg, a, c)
    b.mul(avg, avg, 0.5)
    b.sub(diff, a, c)
    b.mul(diff, diff, 0.5)
    out_addr = b.vreg(DType.I32)
    b.shl(out_addr, gid, 2)
    b.store(avg, out_addr, s_avg)
    b.store(diff, out_addr, s_diff)
    program = b.finish()

    rng = np.random.default_rng(seed)
    inp = rng.uniform(-1, 1, n).astype(np.float32)
    work = inp.copy()
    avg = np.zeros(n // 2, dtype=np.float32)
    diff_all = np.zeros(n, dtype=np.float32)  # concatenated detail bands
    diff = np.zeros(n // 2, dtype=np.float32)

    expected_avg = inp.astype(np.float32).copy()
    expected_diffs = []
    for _ in range(levels):
        pairs = expected_avg.reshape(-1, 2)
        expected_diffs.append(((pairs[:, 0] - pairs[:, 1]) * 0.5))
        expected_avg = ((pairs[:, 0] + pairs[:, 1]) * 0.5).astype(np.float32)

    state = {"offset": 0}

    def steps(buffers: Dict[str, np.ndarray], index: int) -> Optional[LaunchStep]:
        if index >= levels:
            return None
        length = n >> index
        if index > 0:
            # Promote previous level's averages to the next level's input
            # and archive its details.
            buffers["inp"][:length] = buffers["avg"][:length]
            prev = length
            buffers["diff_all"][state["offset"]:state["offset"] + prev] = (
                buffers["diff"][:prev])
            state["offset"] += prev
        return LaunchStep(global_size=length // 2)

    def check(buffers):
        length = n >> (levels - 1)
        np.testing.assert_allclose(buffers["avg"][:length // 2],
                                   expected_avg, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(buffers["diff"][:length // 2],
                                   expected_diffs[-1], rtol=1e-4, atol=1e-5)

    return Workload(
        name="dwth",
        program=program,
        buffers={"inp": work, "avg": avg, "diff": diff, "diff_all": diff_all},
        steps=steps,
        check=check,
        category="coherent",
        description="multi-level Haar wavelet transform",
        max_steps=levels + 1,
    )


def convolution(n: int = 1024, simd_width: int = 16, seed: int = 73) -> Workload:
    """SCnv: 5-tap 1-D convolution with clamped edges."""
    taps = (0.0625, 0.25, 0.375, 0.25, 0.0625)
    rng = np.random.default_rng(seed)
    inp_data = rng.uniform(-1, 1, n).astype(np.float32)

    @dsl.kernel(n=n, simd_width=simd_width, seed=seed, name="scnv",
                category="coherent",
                description="5-tap clamped 1-D convolution")
    def scnv(k, inp=dsl.In(init=given(inp_data)), out=dsl.Out(),
             n=dsl.Scalar("i32", default=n)):
        last = k.var(n - 1)
        acc = k.var(0.0, "f32")
        pos = None
        for offset, weight in zip((-2, -1, 0, 1, 2), taps):
            pos = assign(k, pos, k.gid + offset)
            pos.set(dsl.maximum(pos, 0))
            pos.set(dsl.minimum(pos, last))
            acc.set(inp[pos] * weight + acc)
        out[k.gid] = acc

    return scnv()


def bitonic_sort(n: int = 256, simd_width: int = 16, seed: int = 74) -> Workload:
    """Bsort: global bitonic network; each pass predicates half the lanes
    in a stride pattern that sweeps from SCC-territory to BCC-territory."""
    if n & (n - 1):
        raise ValueError("bitonic sort requires a power-of-two length")
    b = KernelBuilder("bsort", simd_width)
    gid = b.global_id()
    s_d = b.surface_arg("data")
    dist = b.scalar_arg("dist", DType.I32)
    size = b.scalar_arg("size", DType.I32)

    partner = b.vreg(DType.I32)
    b.xor(partner, gid, dist)
    is_low = b.cmp(CmpOp.GT, partner, gid)
    with b.if_(is_low):
        a = b.vreg(DType.F32)
        c = b.vreg(DType.F32)
        addr_a = b.vreg(DType.I32)
        addr_b = b.vreg(DType.I32)
        b.shl(addr_a, gid, 2)
        b.shl(addr_b, partner, 2)
        b.load(a, addr_a, s_d)
        b.load(c, addr_b, s_d)
        # ascending iff (gid & size) == 0
        dir_bit = b.vreg(DType.I32)
        b.and_(dir_bit, gid, size)
        f_asc = b.cmp(CmpOp.EQ, dir_bit, 0)
        f_gt = b.cmp(CmpOp.GT, a, c, flag=FlagRef(1))
        asc_i = b.vreg(DType.I32)
        gt_i = b.vreg(DType.I32)
        b.sel(asc_i, f_asc, 1, 0)
        b.sel(gt_i, f_gt, 1, 0)
        swap_i = b.vreg(DType.I32)
        b.xor(swap_i, asc_i, gt_i)
        b.not_(swap_i, swap_i)
        b.and_(swap_i, swap_i, 1)  # swap iff (a > c) == ascending
        f_swap = b.cmp(CmpOp.NE, swap_i, 0)
        with b.if_(f_swap):
            b.store(c, addr_a, s_d)
            b.store(a, addr_b, s_d)
    program = b.finish()

    rng = np.random.default_rng(seed)
    data0 = rng.uniform(-100, 100, n).astype(np.float32)
    data = data0.copy()

    passes = []
    size = 2
    while size <= n:
        dist = size // 2
        while dist >= 1:
            passes.append((dist, size))
            dist //= 2
        size *= 2

    def steps(buffers: Dict[str, np.ndarray], index: int) -> Optional[LaunchStep]:
        if index >= len(passes):
            return None
        dist, size = passes[index]
        return LaunchStep(global_size=n, scalars={"dist": dist, "size": size})

    def check(buffers):
        np.testing.assert_array_equal(buffers["data"], np.sort(data0))

    return Workload(
        name="bsort",
        program=program,
        buffers={"data": data},
        steps=steps,
        check=check,
        category="divergent",
        description="bitonic sort network with predicated compare-and-swap",
        max_steps=len(passes) + 1,
    )


def aes_round(blocks: int = 512, simd_width: int = 16, seed: int = 75) -> Workload:
    """AES: one SubBytes+AddRoundKey round over 32-bit words.

    Control flow is perfectly coherent but every byte substitution is a
    per-lane table gather — the *memory divergence* counterpoint to the
    branch-divergent workloads (the paper distinguishes the two).
    """
    rng = np.random.default_rng(seed)
    sbox_data = rng.permutation(256)
    state_data = rng.integers(0, 2**31, blocks)
    key_data = rng.integers(0, 2**31, blocks)

    @dsl.kernel(n=blocks, simd_width=simd_width, seed=seed, name="aes",
                category="coherent",
                description="AES SubBytes round with per-lane S-box gathers")
    def aes(k, state=dsl.InOut("i32", init=given(state_data)),
            sbox=dsl.In("i32", size=256, init=given(sbox_data)),
            key=dsl.In("i32", init=given(key_data))):
        word = k.var(state[k.gid])
        result = k.var(0, "i32")
        for shift in (0, 8, 16, 24):
            result.set(result | (sbox[(word >> shift) & 0xFF] << shift))
        result.set(result ^ key[k.gid])
        state[k.gid] = result

    return aes()
