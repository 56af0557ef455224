"""Unit tests for EU components: GRF, mask stack, scoreboard, pipes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policy import CompactionPolicy, execution_cycles
from repro.core.stats import CompactionStats
from repro.eu.eu import ExecutionUnit, _issue_info
from repro.eu.grf import RegisterFile
from repro.eu.maskstack import MaskStack
from repro.eu.pipes import PipeSet
from repro.eu.thread import EUThread
from repro.gpu import GpuConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import FlagRef, RegRef
from repro.isa.types import DType
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams

from grf_access import read, write

masks16 = st.integers(min_value=0, max_value=0xFFFF)


class TestRegisterFile:
    def test_read_after_write(self):
        grf = RegisterFile()
        ref = RegRef(4, DType.F32)
        write(grf.storage, ref, 16, np.arange(16, dtype=np.float32), 0xFFFF)
        np.testing.assert_array_equal(read(grf.storage, ref, 16), np.arange(16))

    def test_masked_write_preserves_disabled_lanes(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F32)
        write(grf.storage, ref, 16, np.full(16, 1.0, np.float32), 0xFFFF)
        write(grf.storage, ref, 16, np.full(16, 2.0, np.float32), 0x00FF)
        values = read(grf.storage, ref, 16)
        np.testing.assert_array_equal(values[:8], 2.0)
        np.testing.assert_array_equal(values[8:], 1.0)

    def test_int_float_aliasing(self):
        grf = RegisterFile()
        write(grf.storage, RegRef(2, DType.I32), 8, np.zeros(8, np.int32), 0xFF)
        write(grf.storage, RegRef(2, DType.F32), 8, np.full(8, 1.0, np.float32), 0xFF)
        ints = read(grf.storage, RegRef(2, DType.I32), 8)
        assert ints[0] == np.float32(1.0).view(np.int32)

    def test_simd16_spans_two_registers(self):
        grf = RegisterFile()
        write(grf.storage, RegRef(10, DType.F32), 16, np.arange(16, dtype=np.float32), 0xFFFF)
        upper = read(grf.storage, RegRef(11, DType.F32), 8)
        np.testing.assert_array_equal(upper, np.arange(8, 16))

    def test_f64_lanes(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F64)
        write(grf.storage, ref, 8, np.arange(8, dtype=np.float64), 0xFF)
        np.testing.assert_array_equal(read(grf.storage, ref, 8), np.arange(8))

    def test_read_returns_copy(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F32)
        values = read(grf.storage, ref, 8)
        values[:] = 99.0
        np.testing.assert_array_equal(read(grf.storage, ref, 8), 0.0)

    def test_overflow_guard(self):
        grf = RegisterFile()
        with pytest.raises(ValueError):
            read(grf.storage, RegRef(127, DType.F32), 16)

    def test_broadcast(self):
        grf = RegisterFile()
        ref = RegRef(5, DType.I32)
        write(grf.storage, ref, 16, 7, 0xFFFF)
        np.testing.assert_array_equal(read(grf.storage, ref, 16), 7)

    def test_scalar_value_under_partial_mask(self):
        grf = RegisterFile()
        ref = RegRef(3, DType.I32)
        write(grf.storage, ref, 16, np.arange(16, dtype=np.int32), 0xFFFF)
        write(grf.storage, ref, 16, -5, 0x8421)
        expected = np.arange(16, dtype=np.int32)
        expected[[0, 5, 10, 15]] = -5
        np.testing.assert_array_equal(read(grf.storage, ref, 16), expected)

    def test_64bit_operand_under_partial_mask(self):
        grf = RegisterFile()
        ref = RegRef(6, DType.I64)
        big = np.int64(1) << 40
        write(grf.storage, ref, 8, np.full(8, -1, np.int64), 0xFF)
        write(grf.storage, ref, 8, big + np.arange(8, dtype=np.int64), 0b10100101)
        expected = np.full(8, -1, np.int64)
        for lane in (0, 2, 5, 7):
            expected[lane] = big + lane
        np.testing.assert_array_equal(read(grf.storage, ref, 8), expected)
        # Both 32-bit halves of a disabled lane stay untouched.
        assert grf.storage[6 * 8 + 2] == 0xFFFFFFFF
        assert grf.storage[6 * 8 + 3] == 0xFFFFFFFF

    def test_zero_mask_writes_nothing(self):
        grf = RegisterFile()
        ref = RegRef(9, DType.F32)
        write(grf.storage, ref, 16, np.full(16, 3.0, np.float32), 0xFFFF)
        before = grf.storage.copy()
        write(grf.storage, ref, 16, np.full(16, 8.0, np.float32), 0)
        write(grf.storage, ref, 16, 8.0, 0)
        np.testing.assert_array_equal(grf.storage, before)


class TestMaskStackIf:
    def test_if_splits_lanes(self):
        ms = MaskStack(16)
        jump = ms.do_if(0x00FF, target=5, target_is_else=False)
        assert jump is None
        assert ms.current == 0x00FF

    def test_endif_restores(self):
        ms = MaskStack(16)
        ms.do_if(0x00FF, 5, False)
        ms.do_endif()
        assert ms.current == 0xFFFF

    def test_else_switches_to_complement(self):
        ms = MaskStack(16)
        ms.do_if(0x00FF, 5, True)
        jump = ms.do_else(target=9)
        assert jump is None
        assert ms.current == 0xFF00

    def test_empty_then_jumps(self):
        ms = MaskStack(16)
        jump = ms.do_if(0x0000, target=7, target_is_else=False)
        assert jump == 7

    def test_empty_then_with_else_activates_else_lanes(self):
        ms = MaskStack(16)
        jump = ms.do_if(0x0000, target=3, target_is_else=True)
        assert jump == 3
        assert ms.current == 0xFFFF  # all lanes take the else arm

    def test_empty_else_jumps_to_endif(self):
        ms = MaskStack(16)
        ms.do_if(0xFFFF, 5, True)
        assert ms.do_else(target=9) == 9

    def test_dispatch_mask_bounds_else(self):
        ms = MaskStack(16, dispatch_mask=0x00FF)
        ms.do_if(0x000F, 5, True)
        ms.do_else(9)
        assert ms.current == 0x00F0  # never beyond the dispatch mask

    def test_nested_ifs(self):
        ms = MaskStack(16)
        ms.do_if(0x00FF, 5, False)
        ms.do_if(0x000F, 9, False)
        assert ms.current == 0x000F
        ms.do_endif()
        assert ms.current == 0x00FF
        ms.do_endif()
        assert ms.current == 0xFFFF

    def test_else_twice_rejected(self):
        ms = MaskStack(16)
        ms.do_if(0x00FF, 5, True)
        ms.do_else(9)
        with pytest.raises(RuntimeError):
            ms.do_else(9)

    def test_endif_without_if(self):
        ms = MaskStack(16)
        with pytest.raises(RuntimeError):
            ms.do_endif()


class TestMaskStackLoop:
    def test_while_continues_with_surviving_lanes(self):
        ms = MaskStack(16)
        ms.do_do(target=9)
        jump = ms.do_while(0x00FF, back_target=1)
        assert jump == 1
        assert ms.current == 0x00FF

    def test_while_exit_restores_entry_mask(self):
        ms = MaskStack(16)
        ms.do_do(9)
        ms.do_while(0x000F, 1)  # iterate with fewer lanes
        jump = ms.do_while(0x0000, 1)  # everyone done
        assert jump is None
        assert ms.current == 0xFFFF

    def test_do_with_empty_mask_skips_loop(self):
        ms = MaskStack(16)
        ms.do_if(0x0, 1, False)  # empties the mask (pretend no jump taken)
        assert ms.current == 0
        assert ms.do_do(target=42) == 42

    def test_break_removes_lanes(self):
        ms = MaskStack(16)
        ms.do_do(9)
        ms.do_break(0x000F)
        assert ms.current == 0xFFF0

    def test_break_lanes_return_after_loop(self):
        ms = MaskStack(16)
        ms.do_do(9)
        ms.do_break(0x00FF)
        ms.do_while(0x0000, 1)
        assert ms.current == 0xFFFF

    def test_break_inside_if_not_resurrected_by_endif(self):
        # The classic SIMT pitfall: lanes that break inside an IF must
        # stay off when the ENDIF restores the pre-IF mask.
        ms = MaskStack(16)
        ms.do_do(9)
        ms.do_if(0x00FF, 5, False)
        ms.do_break(0x000F)  # lanes 0-3 break
        ms.do_endif()
        assert ms.current == 0xFFF0

    def test_break_strips_else_arm_too(self):
        ms = MaskStack(16)
        ms.do_do(9)
        ms.do_if(0x00FF, 5, True)
        ms.do_break(0x0F00 & 0x00FF)  # no-op: lanes not in current mask
        ms.do_break(0x000F)
        ms.do_else(9)
        assert ms.current == 0xFF00  # else lanes unaffected

    def test_break_outside_loop_rejected(self):
        ms = MaskStack(16)
        with pytest.raises(RuntimeError):
            ms.do_break(0xF)

    def test_while_with_open_if_rejected(self):
        ms = MaskStack(16)
        ms.do_do(9)
        ms.do_if(0x00FF, 5, False)
        with pytest.raises(RuntimeError):
            ms.do_while(0xF, 1)

    @given(masks16, masks16)
    def test_if_partition_invariant(self, dispatch, flag):
        ms = MaskStack(16, dispatch_mask=dispatch)
        entry = ms.current
        jumped_to_else = ms.do_if(flag, 5, True) is not None
        taken = 0 if jumped_to_else else ms.current
        if jumped_to_else:
            # The hardware jumped straight into the else arm; the frame
            # is already in its else state.
            not_taken = ms.current
        else:
            ms.do_else(9)
            not_taken = ms.current
        ms.do_endif()
        assert taken | not_taken == entry
        assert taken & not_taken == 0
        assert ms.current == entry


def _program(*insts):
    return Program("units", 16, instructions=[
        *insts, Instruction(opcode=Opcode.EOT, width=16)])


def _eu_with(*programs, dispatch_mask=0xFFFF, **config):
    """One interp EU running one thread per program."""
    eu = ExecutionUnit(0, GpuConfig(num_eus=1, **config),
                       MemoryHierarchy(MemoryParams()),
                       CompactionStats(), CompactionStats())
    threads = [EUThread(i, program, dispatch_mask)
               for i, program in enumerate(programs)]
    for thread in threads:
        eu.add_thread(thread)
    return eu, threads


def _add(dst=4):
    return Instruction(opcode=Opcode.ADD, width=16, dst=RegRef(dst),
                       sources=(RegRef(0), RegRef(2)))


def _full_add_cycles(eu):
    """Pipe occupancy of one full-mask SIMD16 F32 ADD under *eu*'s policy."""
    return execution_cycles(0xFFFF, 16, eu.config.policy, 1, 1)


class TestScoreboard:
    """The dependence rules the scan applies: ``_issue_info`` names an
    instruction's registers and flags, ``ExecutionUnit._fetch`` takes
    its ready cycle over them, and an issue sets its destinations'."""

    @staticmethod
    def _ready(inst, regs=(), flags=()):
        eu, (thread,) = _eu_with(_program(inst))
        thread.scoreboard._reg_ready.update(regs)
        thread.scoreboard._flag_ready.update(flags)
        eu._fetch(thread)
        return thread._ready_cache

    def test_ready_when_empty(self):
        assert self._ready(_add()) == 0

    def test_raw_dependency(self):
        assert self._ready(_add(), regs={0: 10}) == 10
        eu, (thread,) = _eu_with(_program(_add()))
        thread.scoreboard._reg_ready[0] = 10
        assert eu.step(4) == 0
        assert eu.next_event(4) == 10
        assert eu.step(10) == 1

    def test_waw_dependency(self):
        # SIMD16 F32 r4 spans r4-r5; a pending write to r5 blocks too.
        assert self._ready(_add(), regs={5: 8}) == 8

    def test_flag_dependency(self):
        inst = Instruction(opcode=Opcode.IF, width=16, pred=FlagRef(0))
        assert _issue_info(inst)[1] == ((), (0,))
        assert self._ready(inst, flags={0: 6}) == 6

    def test_record_sets_write(self):
        eu, (thread,) = _eu_with(_program(_add()))
        assert eu.step(0) == 1
        done = _full_add_cycles(eu) + Opcode.ADD.latency
        assert thread.scoreboard._reg_ready == {4: done, 5: done}

    def test_monotone_mark(self):
        """A dependent write waits for the one in flight and only ever
        moves the register's ready cycle later."""
        eu, (thread,) = _eu_with(_program(_add(), _add()))
        eu.step(0)
        first = thread.scoreboard._reg_ready[4]
        now = eu.next_event(0)
        assert now >= first
        assert eu.step(now) == 1
        assert thread.scoreboard._reg_ready[4] > first


class TestPipes:
    """Pipe occupancy as the scan applies it: ``busy_until`` after
    ``step``, and no issue to a pipe before it."""

    def test_issue_occupies(self):
        eu, (first, second) = _eu_with(_program(_add()),
                                       _program(_add(dst=8)))
        assert eu.step(0) == 1  # both want the FPU; one gets it
        cycles = _full_add_cycles(eu)
        assert eu.pipes.fpu.busy_until == cycles
        assert eu.pipes.em.busy_until == eu.pipes.send.busy_until == 0
        for now in range(2, cycles, 2):
            eu.step(now)
        assert (first.instructions_executed,
                second.instructions_executed) == (2, 0)  # ADD + EOT
        eu.step(cycles)
        assert second.instructions_executed == 1
        assert eu.pipes.fpu.busy_until == 2 * cycles

    def test_issue_while_busy_rejected(self):
        eu, (thread,) = _eu_with(_program(_add()))
        eu.pipes.fpu.busy_until = 8
        assert eu.step(4) == 0
        assert thread.instructions_executed == 0
        assert eu.next_event(4) == 8
        assert eu.step(8) == 1

    def test_masked_off_issue_still_occupies_one_cycle(self):
        # SCC charges nothing for an empty mask; the pipe still takes one.
        assert execution_cycles(0, 16, CompactionPolicy.SCC) == 0
        eu, _ = _eu_with(_program(_add()), dispatch_mask=0,
                         policy=CompactionPolicy.SCC)
        assert eu.step(0) == 1
        assert eu.pipes.fpu.busy_until == 1
        assert eu.pipes.fpu.busy_cycles == 1

    def test_busy_cycles_accumulate(self):
        eu, _ = _eu_with(_program(_add(), _add(dst=8)))
        eu.step(0)
        eu.step(eu.next_event(0))
        assert eu.pipes.fpu.busy_cycles == 2 * _full_add_cycles(eu)

    def test_pipeset_routing(self):
        pipes = PipeSet()
        load = Instruction(opcode=Opcode.LOAD, width=16, dst=RegRef(4),
                           sources=(RegRef(0),), surface=0)
        sqrt = Instruction(opcode=Opcode.SQRT, width=16, dst=RegRef(4),
                           sources=(RegRef(0),))
        if_ = Instruction(opcode=Opcode.IF, width=16, pred=FlagRef(0))
        assert pipes.by_index[_issue_info(_add())[2]] is pipes.fpu
        assert pipes.by_index[_issue_info(sqrt)[2]] is pipes.em
        assert pipes.by_index[_issue_info(load)[2]] is pipes.send
        assert _issue_info(if_)[2] == -1  # control uses no pipe
