"""Unit tests for EU components: GRF, mask stack, scoreboard, pipes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eu.grf import RegisterFile
from repro.eu.maskstack import MaskStack
from repro.eu.pipes import ExecPipe, PipeSet
from repro.eu.scoreboard import Scoreboard
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import FlagRef, RegRef
from repro.isa.types import DType

masks16 = st.integers(min_value=0, max_value=0xFFFF)


class TestRegisterFile:
    def test_read_after_write(self):
        grf = RegisterFile()
        ref = RegRef(4, DType.F32)
        grf.write(ref, 16, np.arange(16, dtype=np.float32), 0xFFFF)
        np.testing.assert_array_equal(grf.read(ref, 16), np.arange(16))

    def test_masked_write_preserves_disabled_lanes(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F32)
        grf.write(ref, 16, np.full(16, 1.0, np.float32), 0xFFFF)
        grf.write(ref, 16, np.full(16, 2.0, np.float32), 0x00FF)
        values = grf.read(ref, 16)
        np.testing.assert_array_equal(values[:8], 2.0)
        np.testing.assert_array_equal(values[8:], 1.0)

    def test_int_float_aliasing(self):
        grf = RegisterFile()
        grf.write(RegRef(2, DType.I32), 8, np.zeros(8, np.int32), 0xFF)
        grf.write(RegRef(2, DType.F32), 8, np.full(8, 1.0, np.float32), 0xFF)
        ints = grf.read(RegRef(2, DType.I32), 8)
        assert ints[0] == np.float32(1.0).view(np.int32)

    def test_simd16_spans_two_registers(self):
        grf = RegisterFile()
        grf.write(RegRef(10, DType.F32), 16, np.arange(16, dtype=np.float32), 0xFFFF)
        upper = grf.read(RegRef(11, DType.F32), 8)
        np.testing.assert_array_equal(upper, np.arange(8, 16))

    def test_f64_lanes(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F64)
        grf.write(ref, 8, np.arange(8, dtype=np.float64), 0xFF)
        np.testing.assert_array_equal(grf.read(ref, 8), np.arange(8))

    def test_read_returns_copy(self):
        grf = RegisterFile()
        ref = RegRef(0, DType.F32)
        values = grf.read(ref, 8)
        values[:] = 99.0
        np.testing.assert_array_equal(grf.read(ref, 8), 0.0)

    def test_overflow_guard(self):
        grf = RegisterFile()
        with pytest.raises(ValueError):
            grf.read(RegRef(127, DType.F32), 16)

    def test_broadcast(self):
        grf = RegisterFile()
        ref = RegRef(5, DType.I32)
        grf.broadcast(ref, 16, 7)
        np.testing.assert_array_equal(grf.read(ref, 16), 7)

    def test_scalar_value_under_partial_mask(self):
        grf = RegisterFile()
        ref = RegRef(3, DType.I32)
        grf.write(ref, 16, np.arange(16, dtype=np.int32), 0xFFFF)
        grf.write(ref, 16, -5, 0x8421)
        expected = np.arange(16, dtype=np.int32)
        expected[[0, 5, 10, 15]] = -5
        np.testing.assert_array_equal(grf.read(ref, 16), expected)

    def test_64bit_operand_under_partial_mask(self):
        grf = RegisterFile()
        ref = RegRef(6, DType.I64)
        big = np.int64(1) << 40
        grf.write(ref, 8, np.full(8, -1, np.int64), 0xFF)
        grf.write(ref, 8, big + np.arange(8, dtype=np.int64), 0b10100101)
        expected = np.full(8, -1, np.int64)
        for lane in (0, 2, 5, 7):
            expected[lane] = big + lane
        np.testing.assert_array_equal(grf.read(ref, 8), expected)
        # Both 32-bit halves of a disabled lane stay untouched.
        assert grf.raw()[6 * 8 + 2] == 0xFFFFFFFF
        assert grf.raw()[6 * 8 + 3] == 0xFFFFFFFF

    def test_zero_mask_writes_nothing(self):
        grf = RegisterFile()
        ref = RegRef(9, DType.F32)
        grf.write(ref, 16, np.full(16, 3.0, np.float32), 0xFFFF)
        before = grf.raw().copy()
        grf.write(ref, 16, np.full(16, 8.0, np.float32), 0)
        grf.write(ref, 16, 8.0, 0)
        np.testing.assert_array_equal(grf.raw(), before)


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


class TestScoreboard:
    def _inst(self):
        return Instruction(opcode=Opcode.ADD, width=16, dst=RegRef(4),
                           sources=(RegRef(0), RegRef(2)))

    def test_ready_when_empty(self):
        assert Scoreboard().is_ready(self._inst(), 0)

    def test_raw_dependency(self):
        sb = Scoreboard()
        sb.mark_write([0], 10)
        inst = self._inst()
        assert not sb.is_ready(inst, 5)
        assert sb.is_ready(inst, 10)

    def test_waw_dependency(self):
        sb = Scoreboard()
        sb.mark_write([4], 8)
        assert sb.ready_at(self._inst()) == 8

    def test_flag_dependency(self):
        sb = Scoreboard()
        sb.mark_flag_write(0, 6)
        inst = Instruction(opcode=Opcode.IF, width=16, pred=FlagRef(0))
        assert sb.ready_at(inst) == 6

    def test_record_sets_write(self):
        sb = Scoreboard()
        sb.record(self._inst(), 12)
        assert sb.ready_at(self._inst()) == 12

    def test_monotone_mark(self):
        sb = Scoreboard()
        sb.mark_write([0], 10)
        sb.mark_write([0], 5)  # earlier completion must not regress
        assert sb.pending_max() == 10


class TestPipes:
    def test_issue_occupies(self):
        pipe = ExecPipe("fpu")
        drain = pipe.issue(0, 4)
        assert drain == 4
        assert not pipe.can_accept(2)
        assert pipe.can_accept(4)

    def test_issue_while_busy_rejected(self):
        pipe = ExecPipe("fpu")
        pipe.issue(0, 4)
        with pytest.raises(RuntimeError):
            pipe.issue(2, 1)

    def test_zero_occupancy_rejected(self):
        with pytest.raises(ValueError):
            ExecPipe("fpu").issue(0, 0)

    def test_busy_cycles_accumulate(self):
        pipe = ExecPipe("fpu")
        pipe.issue(0, 4)
        pipe.issue(4, 2)
        assert pipe.busy_cycles == 6

    def test_pipeset_routing(self):
        pipes = PipeSet()
        assert pipes.for_opcode(Opcode.ADD) is pipes.fpu
        assert pipes.for_opcode(Opcode.SQRT) is pipes.em
        assert pipes.for_opcode(Opcode.LOAD) is pipes.send
        with pytest.raises(ValueError):
            pipes.for_opcode(Opcode.IF)
