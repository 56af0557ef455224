"""Solver workloads (paper Table 1: Gauss, LU, Trd, FW, Path).

Gaussian elimination and LU factorize with one launch per pivot — the
shrinking update region gives heavy dispatch-mask divergence late in the
factorization.  Floyd-Warshall and PathFinder carry branchy min updates;
the Thomas tridiagonal solver is a coherent fixed-loop baseline.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, given


def _dominant_matrix(n: int, seed: int) -> np.ndarray:
    """Random diagonally dominant matrix (elimination needs no pivoting)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)).astype(np.float32)
    a[np.arange(n), np.arange(n)] = n + rng.uniform(1, 2, n).astype(np.float32)
    return a


def gauss(dim: int = 24, simd_width: int = 16, seed: int = 60) -> Workload:
    """Gaussian elimination: one launch per pivot column.

    Work-item *g* of launch *k* updates element (i, j) of the trailing
    submatrix: ``A[i, j] -= A[i, k] / A[k, k] * A[k, j]``.
    """
    b = KernelBuilder("gauss", simd_width)
    gid = b.global_id()
    s_a = b.surface_arg("A")
    n = b.scalar_arg("n", DType.I32)
    k = b.scalar_arg("k", DType.I32)

    # Decode (i, j): i in [k+1, n), j in [k, n).
    cols = b.vreg(DType.I32)
    b.sub(cols, n, k)
    i = b.vreg(DType.I32)
    j = b.vreg(DType.I32)
    tmp = b.vreg(DType.I32)
    b.div(i, gid, cols)
    b.mul(tmp, i, cols)
    b.sub(j, gid, tmp)
    b.add(i, i, k)
    b.add(i, i, 1)
    b.add(j, j, k)

    addr = b.vreg(DType.I32)
    pivot = b.vreg(DType.F32)
    lead = b.vreg(DType.F32)
    upper = b.vreg(DType.F32)
    cur = b.vreg(DType.F32)
    # pivot = A[k, k]; lead = A[i, k]; upper = A[k, j]; cur = A[i, j]
    b.mul(addr, k, n)
    b.add(addr, addr, k)
    b.shl(addr, addr, 2)
    b.load(pivot, addr, s_a)
    b.mul(addr, i, n)
    b.add(addr, addr, k)
    b.shl(addr, addr, 2)
    b.load(lead, addr, s_a)
    b.mul(addr, k, n)
    b.add(addr, addr, j)
    b.shl(addr, addr, 2)
    b.load(upper, addr, s_a)
    b.mul(addr, i, n)
    b.add(addr, addr, j)
    b.shl(addr, addr, 2)
    b.load(cur, addr, s_a)

    ratio = b.vreg(DType.F32)
    b.div(ratio, lead, pivot)
    delta = b.vreg(DType.F32)
    b.mul(delta, ratio, upper)
    b.sub(cur, cur, delta)
    b.store(cur, addr, s_a)
    program = b.finish()

    a0 = _dominant_matrix(dim, seed)
    a = a0.copy()

    expected = a0.astype(np.float64).copy()
    for kk in range(dim - 1):
        for ii in range(kk + 1, dim):
            ratio = expected[ii, kk] / expected[kk, kk]
            expected[ii, kk:] = expected[ii, kk:] - ratio * expected[kk, kk:]

    def steps(buffers: Dict[str, np.ndarray], index: int) -> Optional[LaunchStep]:
        if index >= dim - 1:
            return None
        rows = dim - index - 1
        cols = dim - index
        return LaunchStep(global_size=rows * cols,
                          scalars={"n": dim, "k": index})

    def check(buffers):
        np.testing.assert_allclose(
            buffers["A"].reshape(dim, dim), expected, rtol=2e-3, atol=2e-3)

    return Workload(
        name="gauss",
        program=program,
        buffers={"A": a.reshape(-1)},
        steps=steps,
        check=check,
        category="divergent",
        description="Gaussian elimination, one launch per pivot",
        max_steps=dim,
    )


def lu_decompose(dim: int = 20, simd_width: int = 16, seed: int = 61) -> Workload:
    """Doolittle LU (in place): the j == k lanes write the multiplier
    while j > k lanes update — a per-warp two-way branch every launch."""
    b = KernelBuilder("lu", simd_width)
    gid = b.global_id()
    s_a = b.surface_arg("A")
    n = b.scalar_arg("n", DType.I32)
    k = b.scalar_arg("k", DType.I32)

    cols = b.vreg(DType.I32)
    b.sub(cols, n, k)
    i = b.vreg(DType.I32)
    j = b.vreg(DType.I32)
    tmp = b.vreg(DType.I32)
    b.div(i, gid, cols)
    b.mul(tmp, i, cols)
    b.sub(j, gid, tmp)
    b.add(i, i, k)
    b.add(i, i, 1)
    b.add(j, j, k)

    addr = b.vreg(DType.I32)
    pivot = b.vreg(DType.F32)
    lead = b.vreg(DType.F32)
    b.mul(addr, k, n)
    b.add(addr, addr, k)
    b.shl(addr, addr, 2)
    b.load(pivot, addr, s_a)
    b.mul(addr, i, n)
    b.add(addr, addr, k)
    b.shl(addr, addr, 2)
    b.load(lead, addr, s_a)
    mult = b.vreg(DType.F32)
    b.div(mult, lead, pivot)

    is_first = b.cmp(CmpOp.EQ, j, k)
    with b.if_(is_first):
        # Store the L multiplier into the eliminated position.
        b.store(mult, addr, s_a)
        b.else_()
        upper = b.vreg(DType.F32)
        cur = b.vreg(DType.F32)
        uaddr = b.vreg(DType.I32)
        b.mul(uaddr, k, n)
        b.add(uaddr, uaddr, j)
        b.shl(uaddr, uaddr, 2)
        b.load(upper, uaddr, s_a)
        caddr = b.vreg(DType.I32)
        b.mul(caddr, i, n)
        b.add(caddr, caddr, j)
        b.shl(caddr, caddr, 2)
        b.load(cur, caddr, s_a)
        delta = b.vreg(DType.F32)
        b.mul(delta, mult, upper)
        b.sub(cur, cur, delta)
        b.store(cur, caddr, s_a)
    program = b.finish()

    a0 = _dominant_matrix(dim, seed)
    a = a0.copy()

    expected = a0.astype(np.float64).copy()
    for kk in range(dim - 1):
        for ii in range(kk + 1, dim):
            mult = expected[ii, kk] / expected[kk, kk]
            expected[ii, kk] = mult
            expected[ii, kk + 1:] -= mult * expected[kk, kk + 1:]

    def steps(buffers: Dict[str, np.ndarray], index: int) -> Optional[LaunchStep]:
        if index >= dim - 1:
            return None
        rows = dim - index - 1
        cols = dim - index
        return LaunchStep(global_size=rows * cols,
                          scalars={"n": dim, "k": index})

    def check(buffers):
        np.testing.assert_allclose(
            buffers["A"].reshape(dim, dim), expected, rtol=2e-3, atol=2e-3)

    return Workload(
        name="lu",
        program=program,
        buffers={"A": a.reshape(-1)},
        steps=steps,
        check=check,
        category="divergent",
        description="Doolittle LU decomposition, branch on multiplier column",
        max_steps=dim,
    )


def tridiagonal(systems: int = 256, size: int = 12, simd_width: int = 16,
                seed: int = 62) -> Workload:
    """Trd: batched Thomas algorithm, one independent system per lane.

    Fixed forward/backward sweeps: fully coherent, EM-pipe heavy.
    """
    rng = np.random.default_rng(seed)
    total = systems * size
    low = rng.uniform(-1, 0, total).astype(np.float32)
    up = rng.uniform(-1, 0, total).astype(np.float32)
    diag = np.abs(low) + np.abs(up) + rng.uniform(1, 2, total)
    low[::size] = 0.0
    up[size - 1::size] = 0.0
    rhs = rng.uniform(-1, 1, total)

    @dsl.kernel(n=systems, simd_width=simd_width, seed=seed, name="trd",
                category="coherent",
                description="batched Thomas tridiagonal solver")
    def trd(k, low=dsl.In(size=total, init=given(low)),
            diag=dsl.In(size=total, init=given(diag)),
            up=dsl.In(size=total, init=given(up)),
            rhs=dsl.In(size=total, init=given(rhs)),
            cprime=dsl.Out(size=total), x=dsl.Out(size=total),
            m=dsl.Scalar("i32", default=size)):
        base = k.var(k.gid * m)
        # Forward sweep: c'[i] = up/denom, d'[i] = (rhs - low*d'[i-1])/denom,
        # denom = diag - low*c'[i-1]; store c' and running d' in cprime/x.
        cprev = k.var(0.0, "f32")
        dprev = k.var(0.0, "f32")
        it = k.var(0, "i32")
        with k.while_(it < m):
            idx = k.var(base + it)
            lo = k.var(low[idx])
            di = k.var(diag[idx])
            u = k.var(up[idx])
            rh = k.var(rhs[idx])
            scaled = k.var(lo * cprev)
            denom = k.var(di - scaled)
            cprev.set(u / denom)
            scaled.set(lo * dprev)
            scaled.set(rh - scaled)
            dprev.set(scaled / denom)
            cprime[idx] = cprev
            x[idx] = dprev
            it.set(it + 1)
        # Backward substitution: x[i] = d'[i] - c'[i] * x[i+1].
        xnext = k.var(0.0, "f32")
        it.set(m - 1)
        with k.while_(it >= 0):
            idx.set(base + it)
            cprev.set(cprime[idx])
            dprev.set(x[idx])
            corr = k.var(cprev * xnext)
            xnext.set(dprev - corr)
            x[idx] = xnext
            it.set(it - 1)

    return trd()


def floyd_warshall(num_vertices: int = 24, simd_width: int = 16,
                   seed: int = 63) -> Workload:
    """FW: all-pairs shortest paths, branchy min, one launch per k."""
    b = KernelBuilder("fw", simd_width)
    gid = b.global_id()
    s_d = b.surface_arg("dist")
    n = b.scalar_arg("n", DType.I32)
    k = b.scalar_arg("k", DType.I32)

    i = b.vreg(DType.I32)
    j = b.vreg(DType.I32)
    tmp = b.vreg(DType.I32)
    b.div(i, gid, n)
    b.mul(tmp, i, n)
    b.sub(j, gid, tmp)

    addr = b.vreg(DType.I32)
    dij = b.vreg(DType.F32)
    dik = b.vreg(DType.F32)
    dkj = b.vreg(DType.F32)
    b.mul(addr, i, n)
    b.add(addr, addr, j)
    b.shl(addr, addr, 2)
    b.load(dij, addr, s_d)
    kaddr = b.vreg(DType.I32)
    b.mul(kaddr, i, n)
    b.add(kaddr, kaddr, k)
    b.shl(kaddr, kaddr, 2)
    b.load(dik, kaddr, s_d)
    b.mul(kaddr, k, n)
    b.add(kaddr, kaddr, j)
    b.shl(kaddr, kaddr, 2)
    b.load(dkj, kaddr, s_d)
    via = b.vreg(DType.F32)
    b.add(via, dik, dkj)
    shorter = b.cmp(CmpOp.LT, via, dij)
    with b.if_(shorter):
        b.store(via, addr, s_d)
    program = b.finish()

    rng = np.random.default_rng(seed)
    dist0 = rng.uniform(1, 10, (num_vertices, num_vertices)).astype(np.float32)
    np.fill_diagonal(dist0, 0.0)
    dist = dist0.copy()

    expected = dist0.astype(np.float64).copy()
    for kk in range(num_vertices):
        expected = np.minimum(
            expected, expected[:, kk:kk + 1] + expected[kk:kk + 1, :])

    def steps(buffers: Dict[str, np.ndarray], index: int) -> Optional[LaunchStep]:
        if index >= num_vertices:
            return None
        return LaunchStep(global_size=num_vertices * num_vertices,
                          scalars={"n": num_vertices, "k": index})

    def check(buffers):
        np.testing.assert_allclose(
            buffers["dist"].reshape(num_vertices, num_vertices),
            expected, rtol=1e-4, atol=1e-4)

    return Workload(
        name="fw",
        program=program,
        buffers={"dist": dist.reshape(-1)},
        steps=steps,
        check=check,
        category="divergent",
        description="Floyd-Warshall all-pairs shortest paths (branchy min)",
        max_steps=num_vertices + 1,
    )


def pathfinder(cols: int = 256, rows: int = 8, simd_width: int = 16,
               seed: int = 64) -> Workload:
    """Path: DP over a grid, min of three neighbours with edge branches."""
    b = KernelBuilder("pathfinder", simd_width)
    gid = b.global_id()
    s_data = b.surface_arg("data")
    s_old = b.surface_arg("old")
    s_new = b.surface_arg("new")
    ncols = b.scalar_arg("cols", DType.I32)
    row = b.scalar_arg("row", DType.I32)

    addr = b.vreg(DType.I32)
    best = b.vreg(DType.F32)
    side = b.vreg(DType.F32)
    b.shl(addr, gid, 2)
    b.load(best, addr, s_old)
    last = b.vreg(DType.I32)
    b.sub(last, ncols, 1)
    # Left neighbour (guarded).
    f = b.cmp(CmpOp.GT, gid, 0)
    with b.if_(f):
        naddr = b.vreg(DType.I32)
        b.sub(naddr, gid, 1)
        b.shl(naddr, naddr, 2)
        b.load(side, naddr, s_old)
        b.min_(best, best, side)
    # Right neighbour (guarded).
    f = b.cmp(CmpOp.LT, gid, last)
    with b.if_(f):
        naddr = b.vreg(DType.I32)
        b.add(naddr, gid, 1)
        b.shl(naddr, naddr, 2)
        b.load(side, naddr, s_old)
        b.min_(best, best, side)
    cost = b.vreg(DType.F32)
    daddr = b.vreg(DType.I32)
    b.mul(daddr, row, ncols)
    b.add(daddr, daddr, gid)
    b.shl(daddr, daddr, 2)
    b.load(cost, daddr, s_data)
    b.add(best, best, cost)
    b.store(best, addr, s_new)
    program = b.finish()

    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 9, (rows, cols)).astype(np.float32)
    old = data[0].copy()
    new = np.zeros(cols, dtype=np.float32)

    expected = data[0].astype(np.float64).copy()
    for r in range(1, rows):
        padded = np.pad(expected, 1, constant_values=np.inf)
        expected = data[r] + np.minimum(
            np.minimum(padded[:-2], padded[1:-1]), padded[2:])

    def steps(buffers: Dict[str, np.ndarray], index: int) -> Optional[LaunchStep]:
        if index >= rows - 1:
            return None
        if index > 0:
            buffers["old"][:] = buffers["new"]
        return LaunchStep(global_size=cols,
                          scalars={"cols": cols, "row": index + 1})

    def check(buffers):
        np.testing.assert_allclose(buffers["new"], expected, rtol=1e-4)

    return Workload(
        name="pathfinder",
        program=program,
        buffers={"data": data.reshape(-1), "old": old, "new": new},
        steps=steps,
        check=check,
        category="divergent",
        description="grid path DP with boundary-guard branches (Rodinia Path)",
        max_steps=rows,
    )
