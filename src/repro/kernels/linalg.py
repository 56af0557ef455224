"""Coherent linear-algebra workloads (paper Table 1: VA, DP, MVM, MT...).

These kernels exhibit near-perfect SIMD efficiency — every lane follows
the same control path — so they populate the right-hand ("coherent")
side of Figure 3 and demonstrate that BCC/SCC neither help nor hurt
coherent applications.
"""

from __future__ import annotations

from .. import dsl
from .workload import Workload, grid_coords, normal


def vector_add(n: int = 4096, simd_width: int = 16) -> Workload:
    """VA: c[i] = a[i] + b[i]."""

    @dsl.kernel(n=n, simd_width=simd_width, seed=1, name="va",
                category="coherent",
                description="vector addition (linear algebra)")
    def va(k, a=dsl.In(init=normal), b=dsl.In(init=normal), c=dsl.Out()):
        c[k.gid] = a[k.gid] + b[k.gid]

    return va()


def dot_product(n: int = 4096, simd_width: int = 16) -> Workload:
    """DP: partial dot products, one strided accumulation per work-item."""
    stride = n // 4  # each work-item accumulates 4 strided elements

    @dsl.kernel(n=n // 4, simd_width=simd_width, seed=2, name="dp",
                category="coherent",
                description="dot product with strided per-lane accumulation")
    def dp(k, a=dsl.In(size=n, init=normal), b=dsl.In(size=n, init=normal),
           partial=dsl.Out(), n=dsl.Scalar("i32", default=n)):
        acc = k.var(0.0, "f32")
        idx = k.var(k.gid)
        with k.while_(idx < n):
            acc.set(a[idx] * b[idx] + acc)
            idx.set(idx + stride)
        partial[k.gid] = acc

    return dp()


def matrix_vector(rows: int = 256, cols: int = 64, simd_width: int = 16) -> Workload:
    """MVM: y = A @ x, one row per work-item."""
    row_len = cols

    @dsl.kernel(n=rows, simd_width=simd_width, seed=3, name="mvm",
                category="coherent",
                description="matrix-vector multiplication, one row per "
                            "work-item")
    def mvm(k, A=dsl.In(size=rows * cols, init=normal),
            x=dsl.In(size=cols, init=normal), y=dsl.Out(),
            cols=dsl.Scalar("i32", default=cols)):
        acc = k.var(0.0, "f32")
        col = k.var(0, "i32")
        row_base = k.var(k.gid * row_len)
        with k.while_(col < cols):
            acc.set(A[row_base + col] * x[col] + acc)
            col.set(col + 1)
        y[k.gid] = acc

    return mvm()


def transpose(dim: int = 64, simd_width: int = 16) -> Workload:
    """Trans-N: out[j, i] = in[i, j] (gathered reads, coherent control)."""

    @dsl.kernel(n=dim * dim, simd_width=simd_width, seed=4, name="transpose",
                category="coherent",
                description="matrix transpose (memory-divergent writes, "
                            "coherent control)")
    def transpose_(k, inp=dsl.In(init=normal), out=dsl.Out(),
                   dim=dsl.Scalar("i32", default=dim)):
        row, col = grid_coords(k, dim)
        val = k.var(inp[k.gid])
        out[col * dim + row] = val

    return transpose_()


def matrix_multiply(dim: int = 32, simd_width: int = 16) -> Workload:
    """MM: C = A @ B, one output element per work-item."""

    @dsl.kernel(n=dim * dim, simd_width=simd_width, seed=5, name="mm",
                category="coherent",
                description="dense matrix multiplication, one element per "
                            "work-item")
    def mm(k, A=dsl.In(init=normal), B=dsl.In(init=normal), C=dsl.Out(),
           dim=dsl.Scalar("i32", default=dim)):
        row, col = grid_coords(k, dim)
        acc = k.var(0.0, "f32")
        i = k.var(0, "i32")
        with k.while_(i < dim):
            acc.set(A[row * dim + i] * B[i * dim + col] + acc)
            i.set(i + 1)
        C[k.gid] = acc

    return mm()
