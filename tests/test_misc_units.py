"""Additional unit coverage: arbiter policy, pipe utilization, GRF edge
cases, thread state, and the hierarchy's DRAM port behaviour."""

import numpy as np
import pytest

from repro.core.policy import CompactionPolicy
from repro.core.stats import CompactionStats
from repro.eu.eu import ExecutionUnit
from repro.eu.grf import RegisterFile
from repro.eu.thread import EUThread, ThreadState
from repro.gpu import GpuConfig, GpuSimulator
from repro.isa.builder import KernelBuilder
from repro.isa.registers import RegRef
from repro.isa.types import DType
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams

from grf_access import read, write


def _counter_program(work=32):
    b = KernelBuilder("ctr", 16)
    gid = b.global_id()
    out = b.surface_arg("out")
    acc = b.vreg(DType.F32)
    b.mov(acc, 1.0)
    for _ in range(work):
        b.mad(acc, acc, 1.0001, 0.5)
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    b.store(acc, addr, out)
    return b.finish()


class TestArbiterPolicies:
    def _run(self, arbiter):
        prog = _counter_program()
        out = np.zeros(512, dtype=np.float32)
        config = GpuConfig(arbiter=arbiter)
        return GpuSimulator(config).run(prog, 512, buffers={"out": out}), out

    def test_both_policies_functionally_identical(self):
        _ra, out_a = self._run("rotating")
        _rb, out_b = self._run("fixed")
        np.testing.assert_array_equal(out_a, out_b)

    def test_both_policies_complete(self):
        ra, _ = self._run("rotating")
        rb, _ = self._run("fixed")
        assert ra.total_cycles > 0 and rb.total_cycles > 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="arbiter"):
            GpuConfig(arbiter="lottery").validate()

    @staticmethod
    def _issuers(arbiter, passes=6):
        """Slot that issues on each of the first *passes* passes of a
        single-issue EU with ready threads in slots 0 and 3."""
        b = KernelBuilder("movs", 16)
        for _ in range(8):
            b.mov(b.vreg(DType.F32), 1.5)  # distinct registers: no stalls
        program = b.finish()
        eu = ExecutionUnit(0, GpuConfig(num_eus=1, issue_width=1,
                                        arbiter=arbiter),
                           MemoryHierarchy(MemoryParams()),
                           CompactionStats(), CompactionStats())
        threads = {0: EUThread(0, program, 0xFFFF),
                   3: EUThread(1, program, 0xFFFF)}
        for slot, thread in threads.items():
            eu.threads[slot] = thread
        issuers = []
        now = 0
        for _ in range(passes):
            before = {s: t.instructions_executed for s, t in threads.items()}
            assert eu.step(now) == 1
            issuers += [s for s, t in threads.items()
                        if t.instructions_executed > before[s]]
            now = eu.next_event(now)
        return issuers

    def test_fixed_priority_always_favours_slot_zero(self):
        # The rotating pointer still moves on every issue; the fixed
        # arbiter's orders must ignore it.
        assert self._issuers("fixed") == [0] * 6

    def test_rotating_priority_alternates(self):
        assert self._issuers("rotating") == [0, 3] * 3


class TestPipeUtilization:
    def test_fpu_dominates_compute_kernel(self):
        prog = _counter_program()
        out = np.zeros(512, dtype=np.float32)
        result = GpuSimulator(GpuConfig()).run(prog, 512, buffers={"out": out})
        util = result.pipe_utilization()
        assert util["fpu"] > util["em"]
        assert util["fpu"] > util["send"]

    def test_scc_lowers_fpu_occupancy_on_divergent_kernel(self):
        from repro.kernels.micro import predicated_pattern
        from repro.kernels.workload import run_workload

        ivb = run_workload(predicated_pattern(0x1111, n=512),
                           GpuConfig(policy=CompactionPolicy.IVB))
        scc = run_workload(predicated_pattern(0x1111, n=512),
                           GpuConfig(policy=CompactionPolicy.SCC))
        assert scc.fpu_busy_cycles < ivb.fpu_busy_cycles

    def test_empty_result_division_guard(self):
        from repro.gpu.results import KernelRunResult
        from repro.core.stats import CompactionStats

        result = KernelRunResult(
            kernel="x", policy=CompactionPolicy.IVB, total_cycles=0,
            instructions=0, alu_stats=CompactionStats(),
            simd_stats=CompactionStats(), l3_hits=0, l3_accesses=0,
            llc_hits=0, llc_accesses=0, dc_lines=0, dram_lines=0,
            memory_messages=0, lines_requested=0, workgroups=0)
        assert result.pipe_utilization() == {"fpu": 0.0, "em": 0.0, "send": 0.0}


class TestGrfEdgeCases:
    def test_simd32_spans_four_registers(self):
        grf = RegisterFile()
        ref = RegRef(8, DType.F32)
        write(grf.storage, ref, 32, np.arange(32, dtype=np.float32), (1 << 32) - 1)
        np.testing.assert_array_equal(read(grf.storage, RegRef(11, DType.F32), 8),
                                      np.arange(24, 32))

    def test_f64_simd16_spans_four_registers(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F64)
        write(grf.storage, ref, 16, np.arange(16, dtype=np.float64), 0xFFFF)
        np.testing.assert_array_equal(read(grf.storage, ref, 16), np.arange(16))

    def test_partial_f64_write(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F64)
        write(grf.storage, ref, 8, np.full(8, 1.5, np.float64), 0xFF)
        write(grf.storage, ref, 8, np.full(8, 9.0, np.float64), 0x0F)
        values = read(grf.storage, ref, 8)
        np.testing.assert_array_equal(values[:4], 9.0)
        np.testing.assert_array_equal(values[4:], 1.5)


class TestThreadState:
    def _thread(self):
        return EUThread(thread_id=0, program=_counter_program(),
                        dispatch_mask=0xFFFF)

    def test_initial_state(self):
        thread = self._thread()
        assert thread.state is ThreadState.ACTIVE
        assert thread.pc == 0
        assert not thread.done

    def test_advance_fallthrough_and_jump(self):
        thread = self._thread()
        thread.advance(None)
        assert thread.pc == 1
        thread.advance(5)
        assert thread.pc == 5

    def test_invalid_jump_rejected(self):
        thread = self._thread()
        with pytest.raises(RuntimeError, match="invalid pc"):
            thread.advance(10_000)

    def test_pred_mask_negation(self):
        thread = self._thread()
        thread.flags[0] = 0x00FF
        from repro.eu.maskstack import pred_mask
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Opcode
        from repro.isa.registers import FlagRef

        inst = Instruction(opcode=Opcode.IF, width=16, pred=FlagRef(0))
        assert pred_mask(inst, thread.flags) == 0x00FF
        inst_neg = Instruction(opcode=Opcode.IF, width=16,
                               pred=FlagRef(0, negate=True))
        assert pred_mask(inst_neg, thread.flags) == 0xFF00


class TestDramPort:
    def test_dram_bandwidth_serializes_misses(self):
        params = MemoryParams(dram_lines_per_cycle=0.25)
        mem = MemoryHierarchy(params)
        # Two cold lines: second DRAM transfer waits for the port.
        first = mem.access(0, [(0, 0)])
        second = mem.access(0, [(0, 100)])
        assert second > first

    def test_dram_lines_counted(self):
        mem = MemoryHierarchy(MemoryParams())
        mem.access(0, [(0, 0), (0, 10)])
        assert mem.dram.lines_transferred == 2
        mem.access(100_000, [(0, 0)])  # now cached somewhere
        assert mem.dram.lines_transferred == 2
