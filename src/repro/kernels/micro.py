"""Divergence micro-benchmarks (paper Section 5.2, Figure 8, Table 2).

These kernels create precisely controlled execution-mask patterns:

* :func:`branch_pattern` — a balanced if/else whose taken lanes are an
  arbitrary bit pattern, the micro-benchmark the paper ran on real Ivy
  Bridge hardware to infer the pre-existing half-mask optimization
  (Figure 8's masks 0xFFFF, 0xF0F0, 0x00FF, 0xFF0F, 0xAAAA).
* :func:`nested_divergence` — L levels of nested branches splitting
  lanes by their index bits, producing exactly the per-path masks of
  Table 2 (L1: 5555/AAAA ... L4: sixteen 1-hot masks).
* :func:`predicated_pattern` — straight-line code predicated by a fixed
  mask, isolating compaction from branch-handling effects.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.registers import FlagRef, RegRef
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, uniform

#: The five Figure 8 divergence patterns, in the paper's order.
FIG8_PATTERNS = (0xFFFF, 0xF0F0, 0x00FF, 0xFF0F, 0xAAAA)


def _emit_fma_chain(b: KernelBuilder, acc: RegRef, x: RegRef, count: int) -> None:
    """Emit *count* dependent FMAs: acc = acc * 1.0001 + x."""
    for _ in range(count):
        b.mad(acc, acc, 1.0001, x)


def _lane_reg(b: KernelBuilder, width: int) -> RegRef:
    """Register holding each lane's index within its thread (0..width-1)."""
    lid = b.local_id()
    lane = b.vreg(DType.I32)
    b.and_(lane, lid, width - 1)
    return lane


def branch_pattern(
    pattern: int,
    n: int = 1024,
    simd_width: int = 16,
    work: int = 6,
    loop_iters: int = 16,
) -> Workload:
    """Balanced if/else with taken-lane *pattern* (Figure 8 micro-bench).

    Lanes whose bit in *pattern* is set execute the then arm; the rest
    execute the else arm.  Both arms carry identical FMA chains, so with
    no compaction the divergent execution time is exactly double the
    coherent one.
    """
    if not 0 <= pattern < (1 << simd_width):
        raise ValueError(f"pattern 0x{pattern:X} does not fit SIMD{simd_width}")
    b = KernelBuilder(f"branch_{pattern:04x}", simd_width)
    gid = b.global_id()
    sx, sy = b.surface_arg("x"), b.surface_arg("y")
    lane = _lane_reg(b, simd_width)
    bit = b.vreg(DType.I32)
    b.shr(bit, pattern, lane)
    b.and_(bit, bit, 1)
    cond = b.cmp(CmpOp.NE, bit, 0)

    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    x = b.vreg(DType.F32)
    b.load(x, addr, sx)
    acc = b.vreg(DType.F32)
    b.mov(acc, 1.0)
    it = b.vreg(DType.I32)
    b.mov(it, 0)
    b.do_()
    with b.if_(cond):
        _emit_fma_chain(b, acc, x, work)
        b.else_()
        _emit_fma_chain(b, acc, x, work)
    b.add(it, it, 1)
    fl = b.cmp(CmpOp.LT, it, loop_iters, flag=FlagRef(1))
    b.while_(fl)
    b.store(acc, addr, sy)
    program = b.finish()

    rng = np.random.default_rng(20)
    x = rng.uniform(0.0, 0.001, n).astype(np.float32)
    y = np.zeros(n, dtype=np.float32)

    def check(buffers):
        acc = np.ones(n, dtype=np.float32)
        for _ in range(loop_iters * work):
            acc = acc * np.float32(1.0001) + x
        np.testing.assert_allclose(buffers["y"], acc, rtol=1e-4)

    return Workload(
        name=f"branch_{pattern:04x}",
        program=program,
        buffers={"x": x, "y": y},
        steps=[LaunchStep(global_size=n)],
        check=check,
        category="divergent" if pattern not in (0, (1 << simd_width) - 1) else "coherent",
        description=f"balanced if/else with lane pattern 0x{pattern:0{simd_width // 4}X}",
    )


def table2_path_masks(level: int, width: int = 16) -> List[int]:
    """The per-branch-path execution masks of paper Table 2.

    Level L splits the *width* lanes by their low L index bits, giving
    ``2**L`` paths; path *k* contains the lanes congruent to *k* modulo
    ``2**L``.

    >>> [hex(m) for m in table2_path_masks(1)]
    ['0x5555', '0xaaaa']
    """
    if not 1 <= level <= 4:
        raise ValueError(f"Table 2 covers nesting levels 1..4, got {level}")
    paths = 1 << level
    masks = []
    for k in range(paths):
        mask = 0
        for lane in range(width):
            if lane % paths == k:
                mask |= 1 << lane
        masks.append(mask)
    return masks


def nested_divergence(
    level: int,
    n: int = 1024,
    simd_width: int = 16,
    work: int = 4,
) -> Workload:
    """L levels of nested branches on lane-index bits (Table 2 kernels).

    At the leaves, every one of the ``2**level`` paths executes the same
    FMA chain under its Table 2 mask.
    """
    if not 1 <= level <= 4:
        raise ValueError(f"nesting level must be 1..4, got {level}")

    @dsl.kernel(n=n, simd_width=simd_width, seed=21, name=f"nested_l{level}",
                category="divergent",
                description=f"{level}-level nested branch divergence "
                            f"(Table 2)")
    def nested(k, x=dsl.In(init=uniform(0.0, 0.001)), y=dsl.Out()):
        xv = k.var(x[k.gid])
        acc = k.var(1.0, "f32")

        def emit_level(depth: int) -> None:
            if depth == level:
                for _ in range(work):
                    acc.set(acc * 1.0001 + xv)
                return
            with k.if_(((k.lane >> depth) & 1) == 0):
                emit_level(depth + 1)
                k.else_()
                emit_level(depth + 1)

        emit_level(0)
        y[k.gid] = acc

    return nested()


def predicated_pattern(
    pattern: int,
    n: int = 1024,
    simd_width: int = 16,
    work: int = 16,
) -> Workload:
    """Straight-line FMA chain predicated by a fixed lane *pattern*.

    Exercises compaction on *predication* masks rather than control-flow
    masks (paper Section 3.1: BCC harvests cycles from dispatch, control
    flow, or predication alike).
    """
    b = KernelBuilder(f"pred_{pattern:04x}", simd_width)
    gid = b.global_id()
    sx, sy = b.surface_arg("x"), b.surface_arg("y")
    lane = _lane_reg(b, simd_width)
    bit = b.vreg(DType.I32)
    b.shr(bit, pattern, lane)
    b.and_(bit, bit, 1)
    cond = b.cmp(CmpOp.NE, bit, 0)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    x = b.vreg(DType.F32)
    b.load(x, addr, sx)
    acc = b.vreg(DType.F32)
    b.mov(acc, 1.0)
    for _ in range(work):
        b.mad(acc, acc, 1.0001, x, pred=cond)
    b.store(acc, addr, sy)
    program = b.finish()

    rng = np.random.default_rng(22)
    x = rng.uniform(0.0, 0.001, n).astype(np.float32)
    y = np.zeros(n, dtype=np.float32)

    def check(buffers):
        acc = np.ones(n, dtype=np.float32)
        enabled = np.array([(pattern >> (i % simd_width)) & 1 for i in range(n)],
                           dtype=bool)
        for _ in range(work):
            acc = np.where(enabled, acc * np.float32(1.0001) + x, acc)
        np.testing.assert_allclose(buffers["y"], acc, rtol=1e-4)

    return Workload(
        name=f"pred_{pattern:04x}",
        program=program,
        buffers={"x": x, "y": y},
        steps=[LaunchStep(global_size=n)],
        check=check,
        category="divergent",
        description=f"predicated FMA chain with lane pattern 0x{pattern:04X}",
    )
