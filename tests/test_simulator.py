"""End-to-end tests of the GPU simulator: dispatch, timing, results."""

import numpy as np
import pytest

from repro.core.policy import CompactionPolicy
from repro.gpu import (
    DeadlockError,
    GpuConfig,
    GpuSimulator,
    merge_results,
    total_time_reduction_pct,
)
from repro.isa.builder import KernelBuilder
from repro.isa.types import CmpOp, DType


def _axpy_program(simd_width=16):
    b = KernelBuilder("axpy", simd_width)
    gid = b.global_id()
    xs, ys = b.surface_arg("x"), b.surface_arg("y")
    a = b.scalar_arg("a", DType.F32)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    x = b.vreg(DType.F32)
    y = b.vreg(DType.F32)
    b.load(x, addr, xs)
    b.load(y, addr, ys)
    b.mad(y, x, a, y)
    b.store(y, addr, ys)
    return b.finish()


def _divergent_program(simd_width=16, work=8):
    """Half the lanes (strided) do `work` FMAs, the rest do one MOV."""
    b = KernelBuilder("div", simd_width)
    gid = b.global_id()
    ys = b.surface_arg("y")
    lane = b.vreg(DType.I32)
    b.and_(lane, gid, 1)
    f = b.cmp(CmpOp.EQ, lane, 0)
    acc = b.vreg(DType.F32)
    b.mov(acc, 1.0)
    with b.if_(f):
        for _ in range(work):
            b.mad(acc, acc, 1.5, 0.25)
        b.else_()
        b.mov(acc, 2.0)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    b.store(acc, addr, ys)
    return b.finish()


class TestFunctionalExecution:
    def test_axpy_result(self):
        prog = _axpy_program()
        n = 256
        x = np.arange(n, dtype=np.float32)
        y = np.ones(n, dtype=np.float32)
        GpuSimulator(GpuConfig()).run(prog, n, buffers={"x": x, "y": y},
                                      scalars={"a": 3.0})
        np.testing.assert_allclose(y, 3.0 * np.arange(n) + 1.0)

    def test_partial_tail_thread(self):
        prog = _axpy_program()
        n = 100  # not a multiple of 16: last thread dispatches 4 lanes
        x = np.arange(n, dtype=np.float32)
        y = np.zeros(n, dtype=np.float32)
        result = GpuSimulator(GpuConfig()).run(
            prog, n, buffers={"x": x, "y": y}, scalars={"a": 1.0})
        np.testing.assert_allclose(y, x)
        assert result.total_cycles > 0

    def test_divergent_branches_correct(self):
        prog = _divergent_program(work=3)
        n = 64
        y = np.zeros(n, dtype=np.float32)
        GpuSimulator(GpuConfig()).run(prog, n, buffers={"y": y})
        acc = np.float32(1.0)
        for _ in range(3):
            acc = acc * np.float32(1.5) + np.float32(0.25)
        np.testing.assert_allclose(y[0::2], acc)
        np.testing.assert_allclose(y[1::2], 2.0)

    def test_missing_buffer_rejected(self):
        prog = _axpy_program()
        with pytest.raises(ValueError, match="missing buffer"):
            GpuSimulator(GpuConfig()).run(prog, 16, buffers={}, scalars={"a": 1.0})

    @pytest.mark.parametrize("engine", ["interp", "fast"])
    def test_missing_scalar_rejected(self, engine):
        prog = _axpy_program()
        x = np.zeros(16, dtype=np.float32)
        with pytest.raises(ValueError) as info:
            GpuSimulator(GpuConfig(engine=engine)).run(
                prog, 16, buffers={"x": x, "y": x.copy()})
        assert str(info.value) == "kernel 'axpy' missing scalar argument 'a'"

    def test_unfinalized_program_rejected(self):
        from repro.isa.program import Program

        with pytest.raises(ValueError, match="finalized"):
            GpuSimulator(GpuConfig()).run(Program("p", 16), 16)


class TestTimingProperties:
    def test_deterministic(self):
        prog = _divergent_program()
        def run():
            y = np.zeros(128, dtype=np.float32)
            return GpuSimulator(GpuConfig()).run(prog, 128, buffers={"y": y})
        assert run().total_cycles == run().total_cycles

    def test_more_work_takes_longer(self):
        prog = _axpy_program()
        def cycles(n):
            x = np.zeros(n, dtype=np.float32)
            y = np.zeros(n, dtype=np.float32)
            return GpuSimulator(GpuConfig()).run(
                prog, n, buffers={"x": x, "y": y}, scalars={"a": 1.0}
            ).total_cycles
        assert cycles(4096) > cycles(256)

    def test_more_eus_faster(self):
        prog = _axpy_program()
        def cycles(num_eus):
            n = 2048
            x = np.zeros(n, dtype=np.float32)
            y = np.zeros(n, dtype=np.float32)
            return GpuSimulator(GpuConfig(num_eus=num_eus)).run(
                prog, n, buffers={"x": x, "y": y}, scalars={"a": 1.0}
            ).total_cycles
        assert cycles(6) < cycles(1)

    def test_policy_ordering_on_divergent_kernel(self):
        prog = _divergent_program(work=12)
        def cycles(policy):
            y = np.zeros(1024, dtype=np.float32)
            return GpuSimulator(GpuConfig(policy=policy)).run(
                prog, 1024, buffers={"y": y}).total_cycles
        ivb = cycles(CompactionPolicy.IVB)
        bcc = cycles(CompactionPolicy.BCC)
        scc = cycles(CompactionPolicy.SCC)
        assert scc <= bcc <= ivb
        assert scc < ivb  # strided divergence must benefit from SCC

    def test_eu_cycles_by_policy_monotone(self):
        prog = _divergent_program()
        y = np.zeros(256, dtype=np.float32)
        result = GpuSimulator(GpuConfig()).run(prog, 256, buffers={"y": y})
        cycles = result.eu_cycles_by_policy()
        assert (cycles[CompactionPolicy.RAW] >= cycles[CompactionPolicy.IVB]
                >= cycles[CompactionPolicy.BCC] >= cycles[CompactionPolicy.SCC])

    def test_max_cycles_guard(self):
        prog = _axpy_program()
        x = np.zeros(4096, dtype=np.float32)
        y = np.zeros(4096, dtype=np.float32)
        config = GpuConfig(max_cycles=10)
        with pytest.raises(DeadlockError, match="max_cycles"):
            GpuSimulator(config).run(prog, 4096, buffers={"x": x, "y": y},
                                     scalars={"a": 1.0})


class TestResultMetrics:
    def _result(self, **config_kwargs):
        prog = _divergent_program()
        y = np.zeros(256, dtype=np.float32)
        return GpuSimulator(GpuConfig(**config_kwargs)).run(
            prog, 256, buffers={"y": y})

    def test_simd_efficiency_below_one(self):
        assert 0.3 < self._result().simd_efficiency < 1.0

    def test_instruction_count_positive(self):
        assert self._result().instructions > 0

    def test_dc_throughput_bounded(self):
        result = self._result()
        assert 0.0 <= result.dc_throughput <= 1.0  # DC1 peak is 1 line/cycle

    def test_summary_keys(self):
        summary = self._result().summary()
        for key in ("total_cycles", "eu_cycles", "simd_efficiency",
                    "l3_hit_rate", "dc_throughput"):
            assert key in summary

    def test_merge_results(self):
        a = self._result()
        b = self._result()
        merged = merge_results([a, b])
        assert merged.total_cycles == a.total_cycles + b.total_cycles
        assert merged.instructions == a.instructions + b.instructions
        assert merged.alu_stats.instructions == (
            a.alu_stats.instructions + b.alu_stats.instructions)

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_results([])

    def test_total_time_reduction(self):
        a = self._result(policy=CompactionPolicy.IVB)
        b = self._result(policy=CompactionPolicy.SCC)
        reduction = total_time_reduction_pct(a, b)
        assert reduction >= 0.0

    def test_reduction_mismatched_kernels_rejected(self):
        a = self._result()
        prog = _axpy_program()
        x = np.zeros(16, dtype=np.float32)
        other = GpuSimulator(GpuConfig()).run(
            prog, 16, buffers={"x": x, "y": x.copy()}, scalars={"a": 1.0})
        with pytest.raises(ValueError):
            total_time_reduction_pct(a, other)


class TestConfig:
    def test_with_policy_copies(self):
        base = GpuConfig()
        scc = base.with_policy(CompactionPolicy.SCC)
        assert base.policy is CompactionPolicy.IVB
        assert scc.policy is CompactionPolicy.SCC

    def test_with_memory_override(self):
        config = GpuConfig().with_memory(dc_lines_per_cycle=2.0)
        assert config.memory.dc_lines_per_cycle == 2.0
        assert GpuConfig().memory.dc_lines_per_cycle == 1.0

    def test_dc1_dc2_presets(self):
        assert GpuConfig.dc1().memory.dc_lines_per_cycle == 1.0
        assert GpuConfig.dc2().memory.dc_lines_per_cycle == 2.0

    def test_perfect_l3_preset(self):
        assert GpuConfig.perfect_l3().memory.perfect_l3

    def test_validation(self):
        with pytest.raises(ValueError):
            GpuConfig(num_eus=0).validate()
