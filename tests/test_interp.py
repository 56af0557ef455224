"""Tests for the EU functional interpreter."""

import numpy as np
import pytest

from repro.eu.grf import RegisterFile
from repro.eu.interp import execute_alu, gather, scatter
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import FlagRef, Imm, RegRef
from repro.isa.types import CmpOp, DType

from grf_access import read, write

FULL16 = 0xFFFF


def _exec(opcode, dst, sources, grf, flags=None, mask=FULL16, dtype=DType.F32,
          cmp_op=None, flag_dst=None, src_dtype=None, selector=0):
    inst = Instruction(
        opcode=opcode, width=16, dtype=dtype, dst=dst, sources=tuple(sources),
        cmp_op=cmp_op, flag_dst=flag_dst, src_dtype=src_dtype,
        pred=FlagRef(0) if opcode is Opcode.SEL else None,
    )
    flags = flags if flags is not None else [0, 0]
    execute_alu(inst, mask, grf, flags, selector)
    return flags


@pytest.fixture
def grf():
    grf = RegisterFile()
    write(grf.storage, RegRef(0, DType.F32), 16, np.arange(16, dtype=np.float32), FULL16)
    write(grf.storage, RegRef(2, DType.F32), 16, np.full(16, 2.0, np.float32), FULL16)
    return grf


class TestSourceOperands:
    """Source operands as an ALU instruction reads them (through MOV)."""

    def test_register(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.MOV, dst, [RegRef(0, DType.F32)], grf)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), np.arange(16))

    def test_immediate_broadcast(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.MOV, dst, [Imm(3.5, DType.F32)], grf)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), 3.5)

    def test_dtype_conversion(self, grf):
        # An F32 register read by an I32 instruction is converted by value
        # before the op: int(i + 0.5) * 2, not int((i + 0.5) * 2).
        src = RegRef(4, DType.F32)
        write(grf.storage, src, 16, np.arange(16, dtype=np.float32) + 0.5, FULL16)
        dst = RegRef(10, DType.I32)
        _exec(Opcode.MUL, dst, [src, Imm(2, DType.I32)], grf, dtype=DType.I32)
        values = read(grf.storage, dst, 16)
        assert values.dtype == np.int32
        np.testing.assert_array_equal(values, np.arange(16) * 2)


class TestArithmetic:
    def test_add(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.ADD, dst, [RegRef(0), RegRef(2)], grf)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), np.arange(16) + 2.0)

    def test_mad(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.MAD, dst, [RegRef(0), Imm(2.0), Imm(1.0)], grf)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), np.arange(16) * 2.0 + 1.0)

    def test_masked_write(self, grf):
        dst = RegRef(10, DType.F32)
        write(grf.storage, dst, 16, np.full(16, -1.0, np.float32), FULL16)
        _exec(Opcode.MOV, dst, [Imm(5.0)], grf, mask=0x00FF)
        values = read(grf.storage, dst, 16)
        np.testing.assert_array_equal(values[:8], 5.0)
        np.testing.assert_array_equal(values[8:], -1.0)

    def test_div_by_zero_float_is_inf(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.DIV, dst, [Imm(1.0), Imm(0.0)], grf)
        assert np.isinf(read(grf.storage, dst, 16)).all()

    def test_int_div_by_zero_is_zero(self, grf):
        dst = RegRef(10, DType.I32)
        _exec(Opcode.DIV, dst, [Imm(7, DType.I32), Imm(0, DType.I32)], grf,
              dtype=DType.I32)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), 0)

    def test_int_div_truncates(self, grf):
        dst = RegRef(10, DType.I32)
        _exec(Opcode.DIV, dst, [Imm(7, DType.I32), Imm(2, DType.I32)], grf,
              dtype=DType.I32)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), 3)

    def test_shift_clamped(self, grf):
        dst = RegRef(10, DType.I32)
        _exec(Opcode.SHL, dst, [Imm(1, DType.I32), Imm(40, DType.I32)], grf,
              dtype=DType.I32)
        # Shift amounts clamp to 31: result is 1 << 31 wrapped to int32 min.
        assert read(grf.storage, dst, 16)[0] == np.int32(-2**31)

    def test_i64_shl_beyond_31_not_truncated(self, grf):
        # Regression: the clamp ceiling must follow the operand width.
        # A fixed [0, 31] clamp silently turned this 40-bit shift into a
        # 31-bit one (and the int64 intermediate kept it from wrapping).
        dst = RegRef(10, DType.I64)
        _exec(Opcode.SHL, dst, [Imm(1, DType.I64), Imm(40, DType.I64)], grf,
              dtype=DType.I64)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), np.int64(1) << 40)

    def test_i64_shr_beyond_31_not_truncated(self, grf):
        dst = RegRef(10, DType.I64)
        _exec(Opcode.SHR, dst, [Imm(1 << 45, DType.I64), Imm(40, DType.I64)],
              grf, dtype=DType.I64)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), 32)

    def test_i64_shift_clamps_at_63(self, grf):
        dst = RegRef(10, DType.I64)
        _exec(Opcode.SHR, dst, [Imm(-1, DType.I64), Imm(200, DType.I64)],
              grf, dtype=DType.I64)
        # Arithmetic shift of -1 by the clamped 63 stays -1.
        np.testing.assert_array_equal(read(grf.storage, dst, 16), -1)

    def test_min_max(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.MIN, dst, [RegRef(0), Imm(4.0)], grf)
        assert read(grf.storage, dst, 16).max() == 4.0
        _exec(Opcode.MAX, dst, [RegRef(0), Imm(4.0)], grf)
        assert read(grf.storage, dst, 16).min() == 4.0

    def test_em_functions(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.SQRT, dst, [Imm(9.0)], grf)
        np.testing.assert_allclose(read(grf.storage, dst, 16), 3.0)
        _exec(Opcode.EXP, dst, [Imm(0.0)], grf)
        np.testing.assert_allclose(read(grf.storage, dst, 16), 1.0)
        _exec(Opcode.RSQRT, dst, [Imm(4.0)], grf)
        np.testing.assert_allclose(read(grf.storage, dst, 16), 0.5)

    def test_bitwise(self, grf):
        dst = RegRef(10, DType.I32)
        _exec(Opcode.AND, dst, [Imm(0b1100, DType.I32), Imm(0b1010, DType.I32)],
              grf, dtype=DType.I32)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), 0b1000)
        _exec(Opcode.XOR, dst, [Imm(0b1100, DType.I32), Imm(0b1010, DType.I32)],
              grf, dtype=DType.I32)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), 0b0110)

    def test_cvt_f32_to_i32(self, grf):
        dst = RegRef(10, DType.I32)
        _exec(Opcode.CVT, dst, [RegRef(0, DType.F32)], grf, dtype=DType.I32,
              src_dtype=DType.F32)
        np.testing.assert_array_equal(read(grf.storage, dst, 16), np.arange(16))


class TestCmpAndSel:
    def test_cmp_writes_flag_bits(self, grf):
        flags = _exec(Opcode.CMP, None, [RegRef(0), Imm(8.0)], grf,
                      cmp_op=CmpOp.LT, flag_dst=FlagRef(0))
        assert flags[0] == 0x00FF  # lanes 0-7 have values < 8

    def test_cmp_only_updates_enabled_lanes(self, grf):
        flags = [0xFFFF, 0]
        _exec(Opcode.CMP, None, [RegRef(0), Imm(-1.0)], grf, flags=flags,
              cmp_op=CmpOp.LT, mask=0x000F, flag_dst=FlagRef(0))
        # Lanes 0-3 updated (all false); lanes 4-15 keep old bits.
        assert flags[0] == 0xFFF0

    def test_sel_uses_selector_not_mask(self, grf):
        dst = RegRef(10, DType.F32)
        _exec(Opcode.SEL, dst, [Imm(1.0), Imm(2.0)], grf, selector=0x00FF)
        values = read(grf.storage, dst, 16)
        np.testing.assert_array_equal(values[:8], 1.0)
        np.testing.assert_array_equal(values[8:], 2.0)


class TestGatherScatter:
    def test_gather_roundtrip(self):
        surface = np.arange(64, dtype=np.float32).view(np.uint8)
        offsets = np.array([4 * i for i in range(16)], dtype=np.int32)
        values = gather(surface, offsets, FULL16, DType.F32)
        np.testing.assert_array_equal(values, np.arange(16))

    def test_gather_disabled_lanes_zero(self):
        surface = np.arange(64, dtype=np.float32).view(np.uint8)
        offsets = np.zeros(16, dtype=np.int32)
        values = gather(surface, offsets, 0x0001, DType.F32)
        assert values[0] == 0.0 and (values[1:] == 0.0).all()

    def test_gather_out_of_bounds(self):
        surface = np.zeros(16, dtype=np.float32).view(np.uint8)
        offsets = np.full(16, 1 << 20, dtype=np.int32)
        with pytest.raises(IndexError):
            gather(surface, offsets, FULL16, DType.F32)

    def test_gather_misaligned(self):
        surface = np.zeros(16, dtype=np.float32).view(np.uint8)
        offsets = np.full(16, 2, dtype=np.int32)
        with pytest.raises(ValueError, match="misaligned"):
            gather(surface, offsets, FULL16, DType.F32)

    def test_scatter_applies_values(self):
        backing = np.zeros(32, dtype=np.float32)
        surface = backing.view(np.uint8)
        offsets = np.array([4 * i for i in range(16)], dtype=np.int32)
        scatter(surface, offsets, np.arange(16, dtype=np.float32), FULL16, DType.F32)
        np.testing.assert_array_equal(backing[:16], np.arange(16))

    def test_scatter_conflict_highest_lane_wins(self):
        backing = np.zeros(4, dtype=np.float32)
        offsets = np.zeros(16, dtype=np.int32)
        scatter(backing.view(np.uint8), offsets,
                np.arange(16, dtype=np.float32), FULL16, DType.F32)
        assert backing[0] == 15.0

    def test_scatter_respects_mask(self):
        backing = np.zeros(16, dtype=np.float32)
        offsets = np.array([4 * i for i in range(16)], dtype=np.int32)
        scatter(backing.view(np.uint8), offsets,
                np.full(16, 7.0, np.float32), 0x0003, DType.F32)
        assert backing[0] == 7.0 and backing[1] == 7.0 and backing[2] == 0.0

    def test_scatter_conflict_under_partial_mask(self):
        # Duplicate offsets with some of the colliding lanes disabled:
        # the winner is the highest *enabled* lane, not the highest lane.
        backing = np.zeros(4, dtype=np.float32)
        offsets = np.zeros(16, dtype=np.int32)
        scatter(backing.view(np.uint8), offsets,
                np.arange(16, dtype=np.float32), 0x000B, DType.F32)
        assert backing[0] == 3.0  # lanes 0,1,3 enabled; lane 3 wins

    def test_bad_offsets_in_disabled_lanes_ignored(self):
        surface = np.arange(16, dtype=np.float32).view(np.uint8)
        offsets = np.array([0, -4, 2, 1 << 20] + [0] * 12, dtype=np.int32)
        values = gather(surface, offsets, 0x0001, DType.F32)
        assert values[0] == 0.0
        scatter(surface, offsets, np.full(16, 9.0, np.float32),
                0x0001, DType.F32)

    def test_error_reports_first_bad_lane(self):
        surface = np.zeros(16, dtype=np.float32).view(np.uint8)
        offsets = np.array([0, 4, 996, 1000] + [0] * 12, dtype=np.int32)
        with pytest.raises(IndexError,
                           match=r"lane 2 reads byte offset 996"):
            gather(surface, offsets, FULL16, DType.F32)

    def test_alignment_checked_before_range(self):
        # A misaligned offset that is also out of range reports the
        # alignment fault, matching the lane-at-a-time reference order.
        surface = np.zeros(16, dtype=np.float32).view(np.uint8)
        offsets = np.array([998] + [0] * 15, dtype=np.int32)
        with pytest.raises(ValueError,
                           match=r"misaligned f32 access at byte offset 998"):
            gather(surface, offsets, FULL16, DType.F32)

    def test_negative_offset_is_out_of_range(self):
        surface = np.zeros(16, dtype=np.float32).view(np.uint8)
        offsets = np.array([0, -4] + [0] * 14, dtype=np.int32)
        with pytest.raises(IndexError,
                           match=r"lane 1 reads byte offset -4"):
            gather(surface, offsets, FULL16, DType.F32)

    def test_scatter_error_says_writes(self):
        surface = np.zeros(16, dtype=np.float32).view(np.uint8)
        offsets = np.full(16, 1 << 20, dtype=np.int32)
        with pytest.raises(IndexError, match=r"lane 0 writes"):
            scatter(surface, offsets, np.zeros(16, np.float32),
                    FULL16, DType.F32)
