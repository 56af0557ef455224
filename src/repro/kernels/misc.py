"""Remaining Table 1 workload stand-ins: Kmeans, EV, ScLA, MT, KNN.

* k-means assignment: per-point loop over centroids with a branchy
  running-min update (mild divergence).
* Eigenvalue (EV): Sturm-sequence bisection per eigenvalue index, with
  the classic pivot-guard branch inside the count loop (divergent).
* Scan-large-array (ScLA): SLM tree reduction with barriers; lanes drop
  out as the stride shrinks below the SIMD width (divergent tail).
* Mersenne-twister-like RNG (MT): pure bit mixing, fully coherent.
* k-nearest-neighbours (KNN): distance + branchy running minimum.
"""

from __future__ import annotations

import numpy as np

from .. import dsl
from ..isa.builder import KernelBuilder
from ..isa.registers import FlagRef
from ..isa.types import CmpOp, DType
from .workload import LaunchStep, Workload, given, normal


def kmeans_assign(num_points: int = 1024, num_clusters: int = 8,
                  simd_width: int = 16, seed: int = 50) -> Workload:
    """Assign each 2-D point to its nearest centroid (branchy argmin)."""

    @dsl.kernel(n=num_points, simd_width=simd_width, seed=seed, name="kmeans",
                category="divergent",
                description="k-means nearest-centroid assignment")
    def kmeans(t, px=dsl.In(init=normal), py=dsl.In(init=normal),
               cx=dsl.In(size=num_clusters, init=normal),
               cy=dsl.In(size=num_clusters, init=normal),
               assign=dsl.Out("i32"),
               k=dsl.Scalar("i32", default=num_clusters)):
        # The trace handle is `t` here: `k` is the cluster count.
        best_id = _nearest(t, t.var(px[t.gid]), t.var(py[t.gid]), cx, cy, k)
        assign[t.gid] = best_id

    return kmeans()


def _nearest(t, x, y, xs, ys, count):
    """Index of the point (xs[j], ys[j]), j < count, nearest to (x, y),
    by a branchy running minimum."""
    best = t.var(1e30, "f32")
    best_id = t.var(-1, "i32")
    j = t.var(0, "i32")
    with t.while_(j < count):
        dx = t.var(xs[j])
        dy = t.var(ys[j])
        dx.set(x - dx)
        dy.set(y - dy)
        d = t.var(dx * dx)
        d.set(dy * dy + d)
        with t.if_(d < best):
            best.set(d)
            best_id.set(j)
        j.set(j + 1)
    return best_id


def eigenvalue(matrix_dim: int = 12, bisect_iters: int = 20,
               simd_width: int = 16, seed: int = 51) -> Workload:
    """EV: k-th eigenvalue of a symmetric tridiagonal matrix by bisection.

    Work-item *i* bisects for eigenvalue index ``i % matrix_dim``.  The
    Sturm count loop carries a divide-guard branch whose taken lanes
    depend on the pivot value — genuine data-dependent divergence.
    """
    b = KernelBuilder("eigenvalue", simd_width)
    gid = b.global_id()
    s_d, s_e = b.surface_arg("diag"), b.surface_arg("offdiag")
    s_out = b.surface_arg("eig")
    m = b.scalar_arg("m", DType.I32)
    lo0 = b.scalar_arg("lo", DType.F32)
    hi0 = b.scalar_arg("hi", DType.F32)

    k_idx = b.vreg(DType.I32)
    tmp = b.vreg(DType.I32)
    b.div(tmp, gid, m)
    b.mul(tmp, tmp, m)
    b.sub(k_idx, gid, tmp)

    lo = b.vreg(DType.F32)
    hi = b.vreg(DType.F32)
    b.mov(lo, lo0)
    b.mov(hi, hi0)
    it = b.vreg(DType.I32)
    b.mov(it, 0)
    mid = b.vreg(DType.F32)
    count = b.vreg(DType.I32)
    i = b.vreg(DType.I32)
    q = b.vreg(DType.F32)
    dv = b.vreg(DType.F32)
    ev = b.vreg(DType.F32)
    iaddr = b.vreg(DType.I32)

    b.do_()
    b.add(mid, lo, hi)
    b.mul(mid, mid, 0.5)
    # Sturm sequence: count eigenvalues < mid.
    b.mov(count, 0)
    b.mov(i, 0)
    b.mov(q, 1.0)
    b.do_()
    b.shl(iaddr, i, 2)
    b.load(dv, iaddr, s_d)
    b.load(ev, iaddr, s_e)
    # q = d[i] - mid - e[i]^2 / q   (with pivot guard)
    absq = b.vreg(DType.F32)
    b.abs_(absq, q)
    guard = b.cmp(CmpOp.LT, absq, 1e-6)
    with b.if_(guard):
        b.mov(q, 1e-6)
    e2 = b.vreg(DType.F32)
    b.mul(e2, ev, ev)
    b.div(e2, e2, q)
    b.sub(q, dv, mid)
    b.sub(q, q, e2)
    neg = b.cmp(CmpOp.LT, q, 0.0)
    b.add(count, count, 1, pred=neg)
    b.add(i, i, 1)
    inner_more = b.cmp(CmpOp.LT, i, m, flag=FlagRef(1))
    b.while_(inner_more)
    # Bisect: count <= k -> eigenvalue k is above mid.
    f_up = b.cmp(CmpOp.LE, count, k_idx)
    b.sel(lo, f_up, mid, lo)
    nf = ~f_up
    b.sel(hi, nf, mid, hi)
    b.add(it, it, 1)
    outer_more = b.cmp(CmpOp.LT, it, bisect_iters, flag=FlagRef(1))
    b.while_(outer_more)

    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    result = b.vreg(DType.F32)
    b.add(result, lo, hi)
    b.mul(result, result, 0.5)
    b.store(result, addr, s_out)
    program = b.finish()

    rng = np.random.default_rng(seed)
    diag = rng.uniform(-2, 2, matrix_dim).astype(np.float32)
    offdiag = np.concatenate(
        [[0.0], rng.uniform(-1, 1, matrix_dim - 1)]
    ).astype(np.float32)
    n = max(simd_width * 8, matrix_dim * 4)
    eig = np.zeros(n, dtype=np.float32)
    matrix = np.diag(diag.astype(np.float64))
    for i in range(1, matrix_dim):
        matrix[i, i - 1] = matrix[i - 1, i] = offdiag[i]
    true_eigs = np.linalg.eigvalsh(matrix)
    lo_bound = float(true_eigs.min() - 1.0)
    hi_bound = float(true_eigs.max() + 1.0)

    def check(buffers):
        got = buffers["eig"]
        expected = true_eigs[np.arange(n) % matrix_dim]
        tol = (hi_bound - lo_bound) / 2 ** bisect_iters * 4 + 1e-3
        np.testing.assert_allclose(got, expected, atol=tol)

    return Workload(
        name="eigenvalue",
        program=program,
        buffers={"diag": diag, "offdiag": offdiag, "eig": eig},
        steps=[LaunchStep(global_size=n,
                          scalars={"m": matrix_dim, "lo": lo_bound, "hi": hi_bound})],
        check=check,
        category="divergent",
        description="tridiagonal eigenvalue bisection (Sturm counts)",
    )


def scan_reduce(n: int = 1024, local_size: int = 64, simd_width: int = 16,
                seed: int = 52) -> Workload:
    """ScLA: SLM tree reduction per workgroup, with a divergent tail."""
    if local_size % simd_width != 0 or local_size & (local_size - 1):
        raise ValueError("local_size must be a power of two multiple of SIMD width")
    b = KernelBuilder("scla", simd_width, slm_bytes=local_size * 4)
    gid = b.global_id()
    lid = b.local_id()
    s_in, s_out = b.surface_arg("inp"), b.surface_arg("partial")
    wg_size = b.scalar_arg("wg", DType.I32)

    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    x = b.vreg(DType.F32)
    b.load(x, addr, s_in)
    slm_addr = b.vreg(DType.I32)
    b.shl(slm_addr, lid, 2)
    b.store_slm(x, slm_addr)
    b.barrier()

    stride = b.vreg(DType.I32)
    b.shr(stride, wg_size, 1)
    a = b.vreg(DType.F32)
    c = b.vreg(DType.F32)
    other = b.vreg(DType.I32)
    b.do_()
    f_active = b.cmp(CmpOp.LT, lid, stride)
    with b.if_(f_active):
        b.load_slm(a, slm_addr)
        b.add(other, lid, stride)
        b.shl(other, other, 2)
        b.load_slm(c, other)
        b.add(a, a, c)
        b.store_slm(a, slm_addr)
    b.barrier()
    b.shr(stride, stride, 1)
    more = b.cmp(CmpOp.GT, stride, 0, flag=FlagRef(1))
    b.while_(more)

    f_first = b.cmp(CmpOp.EQ, lid, 0)
    with b.if_(f_first):
        wg_id = b.vreg(DType.I32)
        b.div(wg_id, gid, wg_size)
        out_addr = b.vreg(DType.I32)
        b.shl(out_addr, wg_id, 2)
        total = b.vreg(DType.F32)
        zero = b.vreg(DType.I32)
        b.mov(zero, 0)
        b.load_slm(total, zero)
        b.store(total, out_addr, s_out)
    program = b.finish()

    rng = np.random.default_rng(seed)
    inp = rng.uniform(-1, 1, n).astype(np.float32)
    partial = np.zeros(n // local_size, dtype=np.float32)

    def check(buffers):
        expected = inp.reshape(-1, local_size).sum(axis=1, dtype=np.float64)
        np.testing.assert_allclose(buffers["partial"], expected, rtol=1e-4,
                                   atol=1e-4)

    return Workload(
        name="scla",
        program=program,
        buffers={"inp": inp, "partial": partial},
        steps=[LaunchStep(global_size=n, local_size=local_size,
                          scalars={"wg": local_size})],
        check=check,
        category="divergent",
        description="SLM tree reduction with barriers (scan large array)",
    )


def mersenne_mix(n: int = 1024, rounds: int = 16, simd_width: int = 16) -> Workload:
    """MT: xorshift-style tempering rounds; fully coherent bit mixing."""

    @dsl.kernel(n=n, simd_width=simd_width, name="mt", category="coherent",
                description="xorshift bit-mixing RNG (Mersenne-twister "
                            "stand-in)")
    def mt(k, out=dsl.Out("i32")):
        state = k.var(k.gid * 69069 + 362437)
        for _ in range(rounds):
            state.set(state ^ (state << 13))
            # logical-shift emulation for the high bits
            state.set(state ^ ((state >> 17) & 0x7FFF))
            state.set(state ^ (state << 5))
        out[k.gid] = state

    return mt()


def knn(num_points: int = 256, num_queries: int = 128, simd_width: int = 16,
        seed: int = 53) -> Workload:
    """KNN: nearest neighbour per query via branchy running minimum."""
    rng = np.random.default_rng(seed)
    px, py, qx, qy = (rng.standard_normal(size) for size in
                      (num_points, num_points, num_queries, num_queries))

    @dsl.kernel(n=num_queries, simd_width=simd_width, seed=seed, name="knn",
                category="divergent",
                description="nearest neighbour search with branchy minimum")
    def knn_(t, qx=dsl.In(init=given(qx)), qy=dsl.In(init=given(qy)),
             px=dsl.In(size=num_points, init=given(px)),
             py=dsl.In(size=num_points, init=given(py)),
             nn=dsl.Out("i32"), npts=dsl.Scalar("i32", default=num_points)):
        best_id = _nearest(t, t.var(qx[t.gid]), t.var(qy[t.gid]), px, py,
                           npts)
        nn[t.gid] = best_id

    return knn_()
