"""The interp engine's per-instruction execution plans.

An instruction's interp plan (``repro.eu.interp.alu_plan`` and the EU's
memory plan) caches its resolved operands: GRF slot bounds, pre-broadcast
immediates and the ALU formula.  These tests pin the hazards of reading
and writing through those cached operands: overlapping registers, shared
immediates, operand errors, and the numpy error state a run enters
once.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.core.stats import CompactionStats
from repro.dsl.kernels import dsl_clip
from repro.dsl.reference import run_reference
from repro.eu.batch import run_functional
from repro.eu.eu import ExecutionUnit
from repro.eu.grf import RegisterFile
from repro.eu.interp import alu_plan, execute_alu
from repro.eu.thread import EUThread
from repro.gpu import GpuConfig, GpuSimulator
from repro.gpu.dispatch import bind_surfaces
from repro.isa.builder import KernelBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import FlagRef, Imm, RegRef
from repro.isa.types import CmpOp, DType
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams

FULL16 = 0xFFFF

#: Result fields a memory hazard would move.
_FIELDS = ("total_cycles", "instructions", "lines_requested", "l3_accesses",
           "l3_hits", "dc_lines", "dram_lines", "memory_messages")


def _run(program, buffers, engine, global_size=64):
    buffers = {name: data.copy() for name, data in buffers.items()}
    result = GpuSimulator(GpuConfig(engine=engine)).run(
        program, global_size, buffers=buffers)
    return {name: getattr(result, name) for name in _FIELDS}, buffers


def _far_values(n):
    """I32 data that, read as byte offsets, would hit other cache lines."""
    return (np.arange(n, dtype=np.int32) * 4096 + 131072).astype(np.int32)


def _load_into_address(partial):
    """LOAD whose destination is its address register (or, *partial*,
    overlaps its upper half), then store what was loaded."""
    b = KernelBuilder("ldovl", 16)
    src = b.surface_arg("src")
    out = b.surface_arg("out")
    gid = b.global_id()
    addr = b.shl(b.vreg(DType.I32), gid, 2)
    b.vreg(DType.I32)  # keeps the register after ``addr`` free
    dst = RegRef(addr.reg + 1, DType.I32) if partial else addr
    b.load(dst, addr, src)
    b.store(dst, b.shl(b.vreg(DType.I32), gid, 2), out)
    return b.finish()


def _store_over_address(partial):
    """STORE whose data register is its address register (or, *partial*,
    starts at its upper half and runs into the next register)."""
    b = KernelBuilder("stovl", 16)
    out = b.surface_arg("out")
    gid = b.global_id()
    addr = b.shl(b.vreg(DType.I32), gid, 2)
    b.add(b.vreg(DType.I32), gid, 1000)
    data = RegRef(addr.reg + 1, DType.I32) if partial else addr
    b.store(data, addr, out)
    return b.finish()


def _stored(partial):
    """What :func:`_store_over_address` writes, four threads of 16 lanes."""
    gid = np.arange(64).reshape(4, 16)
    if not partial:
        return (gid * 4).ravel()
    return np.concatenate([gid[:, 8:] * 4, gid[:, :8] + 1000], axis=1).ravel()


#: The results of the implementation before interp plans existed, for
#: the kernels above (the fast engine gives the same).  A LOAD taking its
#: cache lines from the loaded data would request 16 lines per message.
PINNED_LOAD = {"total_cycles": 250, "instructions": 20,
               "lines_requested": 8, "l3_accesses": 8, "l3_hits": 0,
               "dc_lines": 8, "dram_lines": 8, "memory_messages": 8}
_STORE_RESULT = {"lines_requested": 4, "l3_accesses": 4, "l3_hits": 0,
                 "dc_lines": 4, "dram_lines": 4, "memory_messages": 4,
                 "instructions": 16}
PINNED_STORE = {False: dict(_STORE_RESULT, total_cycles=42),
                True: dict(_STORE_RESULT, total_cycles=48)}


class TestMemoryOverlap:
    """The address operand is copied before the message runs: a LOAD may
    overwrite its own address registers, and its cache lines must still
    come from the addresses."""

    @pytest.mark.parametrize("partial", [False, True])
    def test_load_overlapping_address(self, partial):
        buffers = {"src": _far_values(64), "out": np.zeros(64, np.int32)}
        interp, ibufs = _run(_load_into_address(partial), buffers, "interp")
        fast, _ = _run(_load_into_address(partial), buffers, "fast")
        np.testing.assert_array_equal(ibufs["out"], buffers["src"])
        assert interp == fast == PINNED_LOAD

    @pytest.mark.parametrize("partial", [False, True])
    def test_store_data_overlapping_address(self, partial):
        buffers = {"out": np.zeros(64, np.int32)}
        interp, ibufs = _run(_store_over_address(partial), buffers, "interp")
        fast, _ = _run(_store_over_address(partial), buffers, "fast")
        np.testing.assert_array_equal(ibufs["out"], _stored(partial))
        assert interp == fast == PINNED_STORE[partial]


def _alu(opcode, dst, sources, dtype=DType.F32, width=16, **kwargs):
    return Instruction(opcode=opcode, width=width, dtype=dtype, dst=dst,
                       sources=tuple(sources), **kwargs)


class TestAluOperands:
    def test_mov_overlapping_spans_partial_mask(self):
        # SIMD16 F32 spans two registers: r11..r12 <- r10..r11.  Lane i
        # of the destination is lane i+8 of the source, so a lane-by-
        # lane copy would read values it had already overwritten.
        for dst_reg, src_reg in ((11, 10), (10, 11)):
            grf = RegisterFile()
            init = np.arange(32, dtype=np.float32) + 100
            grf.write(RegRef(10), 16, init[:16], FULL16)
            grf.write(RegRef(12), 16, init[16:32], FULL16)
            before = grf.raw().copy().view(np.float32)
            mask = 0b1011_0110_1100_1101
            execute_alu(_alu(Opcode.MOV, RegRef(dst_reg), [RegRef(src_reg)]),
                        mask, grf, [0, 0])
            lanes = np.array([(mask >> i) & 1 for i in range(16)], bool)
            expected = before.copy()
            dst = expected[dst_reg * 8:dst_reg * 8 + 16]
            src = before[src_reg * 8:src_reg * 8 + 16]
            dst[lanes] = src[lanes]
            np.testing.assert_array_equal(grf.raw().view(np.float32),
                                          expected)

    def test_immediate_is_shared_read_only_and_threads_independent(self):
        inst = _alu(Opcode.MOV, RegRef(10), [Imm(7.0)])
        first, second = RegisterFile(), RegisterFile()
        execute_alu(inst, 0x00FF, first, [0, 0])
        execute_alu(inst, FULL16, second, [0, 0])
        np.testing.assert_array_equal(first.read(RegRef(10), 16),
                                      [7.0] * 8 + [0.0] * 8)
        np.testing.assert_array_equal(second.read(RegRef(10), 16), 7.0)
        # Writing one thread's register leaves the other's alone.
        second.write(RegRef(10), 16, np.zeros(16, np.float32), FULL16)
        np.testing.assert_array_equal(first.read(RegRef(10), 16),
                                      [7.0] * 8 + [0.0] * 8)
        (imm,) = alu_plan(inst)[1]
        assert not imm.flags.writeable
        np.testing.assert_array_equal(imm, 7.0)
        with pytest.raises(ValueError):
            imm[0] = 1.0

    def test_executed_instruction_pickles_without_its_plan(self):
        inst = _alu(Opcode.ADD, RegRef(10), [RegRef(0), Imm(1.0)])
        execute_alu(inst, FULL16, RegisterFile(), [0, 0])
        assert "_alu_plan" in inst.__dict__
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst and "_alu_plan" not in copy.__dict__
        grf = RegisterFile()
        execute_alu(copy, FULL16, grf, [0, 0])
        np.testing.assert_array_equal(grf.read(RegRef(10), 16), 1.0)


#: ``RegisterFile`` names the overflowing slots; program finalization
#: (and the scan's dependency probe) the overflowing register.
_SLOTS_TEXT = ("operand r127:f32 at SIMD16 overflows the GRF "
               "(slots 1016..1031)")
_REGS_TEXT = "operand r127:f32 at SIMD16 overflows the GRF (spans to r128)"


class TestOperandErrors:
    @pytest.mark.parametrize("dst, src", [
        (RegRef(10), RegRef(127)),   # source overflows
        (RegRef(127), RegRef(10)),   # destination overflows
    ])
    def test_overflow_through_execute_alu(self, dst, src):
        inst = _alu(Opcode.ADD, dst, [src, Imm(1.0)])
        grf = RegisterFile()
        before = grf.raw().copy()
        for _ in range(2):  # no half-built plan is left behind
            with pytest.raises(ValueError) as info:
                execute_alu(inst, FULL16, grf, [0, 0])
            assert str(info.value) == _SLOTS_TEXT
        assert "_alu_plan" not in inst.__dict__
        np.testing.assert_array_equal(grf.raw(), before)

    @pytest.mark.parametrize("engine, text", [
        ("interp", _REGS_TEXT),  # the scan's dependency probe meets it
        ("fast", _SLOTS_TEXT),   # the batched pass's operand plan meets it
    ], ids=["interp", "fast"])
    def test_overflow_through_a_simulated_run(self, engine, text):
        def program():
            return Program(name="ovf", simd_width=16, instructions=[
                _alu(Opcode.MOV, RegRef(127), [RegRef(0)]),
                Instruction(opcode=Opcode.EOT, width=16)])

        with pytest.raises(ValueError) as info:
            program().finalize()
        assert str(info.value) == _REGS_TEXT
        # Past finalization, each engine's functional model meets the
        # same operand.
        config = GpuConfig(num_eus=1, engine=engine)
        with pytest.raises(ValueError) as info:
            if engine == "interp":
                eu = ExecutionUnit(0, config,
                                   MemoryHierarchy(MemoryParams()),
                                   CompactionStats(), CompactionStats())
                eu.add_thread(EUThread(0, program(), FULL16))
                eu.step(0)
            else:
                run_functional(program(), 16, 16, [], {}, config)
        assert str(info.value) == text

    def test_bad_operand_type(self):
        inst = _alu(Opcode.MOV, RegRef(10), ["r0"])
        with pytest.raises(TypeError, match="cannot evaluate operand 'r0'"):
            execute_alu(inst, FULL16, RegisterFile(), [0, 0])


class TestErrorState:
    """A run enters ``np.errstate`` once and always leaves it;
    a direct :func:`execute_alu` call keeps its own."""

    def _kernel(self, offset):
        b = KernelBuilder("errk", 16)
        src = b.surface_arg("src")
        out = b.surface_arg("out")
        gid = b.global_id()
        x = b.cvt(b.vreg(DType.F32), gid)
        b.div(x, x, 0.0)               # 0/0 and x/0: IEEE nan and inf
        b.log(x, b.vreg(DType.F32))    # log(0) = -inf
        addr = b.shl(b.vreg(DType.I32), gid, 2)
        b.add(addr, addr, offset)
        b.store(b.load(b.vreg(DType.F32), addr, src),
                b.shl(b.vreg(DType.I32), gid, 2), out)
        return b.finish()

    def _run(self, offset):
        buffers = {"src": np.ones(16, np.float32),
                   "out": np.zeros(16, np.float32)}
        GpuSimulator(GpuConfig(engine="interp")).run(
            self._kernel(offset), 16, buffers=buffers)
        return buffers

    @pytest.fixture
    def warn(self):
        """A known error state that differs from ``all="ignore"``, so a
        leaked ``errstate`` shows even if an earlier test leaked one."""
        with np.errstate(all="warn"):
            yield np.geterr()

    def test_normal_run_restores_error_state(self, warn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            buffers = self._run(0)
        np.testing.assert_array_equal(buffers["out"], 1.0)
        assert np.geterr() == warn

    def test_run_raising_in_the_scan_restores_error_state(self, warn):
        with pytest.raises(IndexError, match="reads byte offset"):
            self._run(1 << 20)
        assert np.geterr() == warn

    @pytest.mark.parametrize("opcode, sources", [
        (Opcode.DIV, [Imm(1.0), Imm(0.0)]),
        (Opcode.DIV, [Imm(0.0), Imm(0.0)]),
        (Opcode.LOG, [Imm(0.0)]),
    ])
    def test_direct_execute_alu_is_warning_free(self, warn, opcode, sources):
        grf = RegisterFile()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute_alu(_alu(opcode, RegRef(10), sources), FULL16, grf,
                        [0, 0])
        assert not np.isfinite(grf.read(RegRef(10), 16)).any()
        assert np.geterr() == warn

    def test_cmp_and_sel_plans(self):
        # CMP writes only enabled flag bits; SEL picks by its selector.
        grf = RegisterFile()
        grf.write(RegRef(0), 16, np.arange(16, dtype=np.float32), FULL16)
        flags = [0xF000, 0]
        execute_alu(Instruction(opcode=Opcode.CMP, width=16,
                                sources=(RegRef(0), Imm(8.0)),
                                flag_dst=FlagRef(0), cmp_op=CmpOp.LT),
                    0x0F0F, grf, flags)
        assert flags[0] == 0xF00F
        execute_alu(Instruction(opcode=Opcode.SEL, width=16, dst=RegRef(2),
                                sources=(RegRef(0), Imm(-1.0)),
                                pred=FlagRef(0)),
                    FULL16, grf, flags, flags[0])
        expected = np.where([(0xF00F >> i) & 1 for i in range(16)],
                            np.arange(16), -1.0)
        np.testing.assert_array_equal(grf.read(RegRef(2), 16), expected)


class _CountingErrstate(np.errstate):
    """``np.errstate`` that counts how often it is entered."""

    enters = 0

    def __enter__(self):
        type(self).enters += 1
        return super().__enter__()


class TestErrorStateEntries:
    """Each run enters numpy's error state once, not once per pass,
    per ALU group or per operator."""

    @pytest.fixture
    def count(self, monkeypatch):
        monkeypatch.setattr(_CountingErrstate, "enters", 0)
        monkeypatch.setattr(np, "errstate", _CountingErrstate)
        return _CountingErrstate

    def _program_and_buffers(self):
        program = TestErrorState()._kernel(0)
        buffers = {"src": np.ones(64, np.float32),
                   "out": np.zeros(64, np.float32)}
        return program, buffers

    def test_interp_launch_enters_once(self, count):
        program, buffers = self._program_and_buffers()
        result = GpuSimulator(GpuConfig(engine="interp")).run(
            program, 64, buffers=buffers)
        # Many issuing passes, one error-state entry.
        assert result.instructions > 20
        assert count.enters == 1
        np.testing.assert_array_equal(buffers["out"], 1.0)

    def test_fast_functional_pass_enters_once(self, count):
        program, buffers = self._program_and_buffers()
        traces = run_functional(program, 64, 64,
                                bind_surfaces(program, buffers), {},
                                GpuConfig(engine="fast"))
        assert sum(len(t) for t in traces) > 20
        assert count.enters == 1
        np.testing.assert_array_equal(buffers["out"], 1.0)

    def test_dsl_reference_enters_once(self, count):
        trace, _params = dsl_clip.trace()
        x = np.linspace(-1.0, 2.0, 64, dtype=np.float32)
        buffers = {"x": x, "y": np.zeros(64, np.float32)}
        run_reference(trace, buffers, {"s": 2.0}, 64)
        assert count.enters == 1
        assert np.isnan(buffers["y"][0])  # sqrt of a negative, unwarned
