"""Tests for the MMX-like and MDMX-like builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.datatypes import S16, S32, U8, U16, U32, ElementType
from repro.isa.opclasses import OpClass, RegFile

S8 = ElementType(8, signed=True)


def lanes(builder, reg, etype):
    return list(builder.mm.read_lanes(reg, etype))


class TestMMXMemoryAndMoves:
    def test_movq_roundtrip(self, mmx_builder):
        b = mmx_builder
        addr = b.machine.alloc_array(np.arange(8), U8)
        out = b.machine.memory.alloc(8)
        b.li(1, addr)
        b.li(2, out)
        b.movq_ld(0, 1, 0, U8)
        assert lanes(b, 0, U8) == list(range(8))
        b.movq_st(0, 2, 0, U8)
        assert list(b.machine.read_array(out, 8, U8)) == list(range(8))

    def test_movq_load_metadata(self, mmx_builder):
        b = mmx_builder
        addr = b.machine.alloc_array(np.arange(8), U8)
        b.li(1, addr)
        b.movq_ld(0, 1, 0, U8)
        instr = b.trace[-1]
        assert instr.opclass is OpClass.MEDIA_LOAD
        assert instr.is_vector and instr.vlx == 8 and instr.vly == 1
        assert instr.ops == 8

    def test_movd_load_and_store(self, mmx_builder):
        b = mmx_builder
        addr = b.machine.alloc_array(np.array([9, 8, 7, 6]), U8)
        out = b.machine.memory.alloc(8)
        b.li(1, addr)
        b.li(2, out)
        b.movd_ld(0, 1, 0, U8)
        assert lanes(b, 0, U8)[:4] == [9, 8, 7, 6]
        assert lanes(b, 0, U8)[4:] == [0, 0, 0, 0]
        b.movd_st(0, 2, 0, U8)
        assert list(b.machine.read_array(out, 4, U8)) == [9, 8, 7, 6]

    def test_register_moves(self, mmx_builder):
        b = mmx_builder
        b.li(1, 0x55)
        b.movd_from_int(3, 1)
        assert b.mm.read(3) == 0x55
        b.movq(4, 3)
        assert b.mm.read(4) == 0x55
        b.movd_to_int(2, 4, 0, S32)
        assert b.regs.read(2) == 0x55

    def test_splat_and_load_const(self, mmx_builder):
        b = mmx_builder
        b.li(1, 3)
        b.splat(0, 1, S16)
        assert lanes(b, 0, S16) == [3, 3, 3, 3]
        b.load_const(1, [-1, 2, -3, 4], S16)
        assert lanes(b, 1, S16) == [-1, 2, -3, 4]
        assert b.trace[-1].opclass is OpClass.MEDIA_LOAD

    def test_pzero(self, mmx_builder):
        b = mmx_builder
        b.load_const(5, [1] * 8, U8)
        b.pzero(5)
        assert b.mm.read(5) == 0


class TestMMXArithmetic:
    def test_packed_add_sat(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [250] * 8, U8)
        b.load_const(1, [20] * 8, U8)
        b.padd(2, 0, 1, U8, saturating="sat")
        assert lanes(b, 2, U8) == [255] * 8
        b.padd(3, 0, 1, U8)
        assert lanes(b, 3, U8) == [14] * 8

    def test_multiply_family(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [3, -3, 100, 0], S16)
        b.load_const(1, [7, 7, 100, 5], S16)
        b.pmull(2, 0, 1, S16)
        assert lanes(b, 2, S16) == [21, -21, 10000, 0]
        b.pmulh(3, 0, 1, S16)
        assert lanes(b, 3, S16) == [0, -1, 0, 0]
        b.pmadd(4, 0, 1, S16)
        assert list(b.mm.read_lanes(4, S32)) == [21 - 21, 10000 + 0]
        assert b.trace[-1].opclass is OpClass.MEDIA_MUL

    def test_sad_and_avg(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [10, 0, 0, 0, 0, 0, 0, 0], U8)
        b.load_const(1, [0, 10, 0, 0, 0, 0, 0, 0], U8)
        b.psad(2, 0, 1, U8)
        assert list(b.mm.read_lanes(2, U32))[0] == 20
        b.pavg(3, 0, 1, U8)
        assert lanes(b, 3, U8)[:2] == [5, 5]
        b.pabsdiff(4, 0, 1, U8)
        assert lanes(b, 4, U8)[:2] == [10, 10]

    def test_min_max_compare(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [1, 5, -3, 0], S16)
        b.load_const(1, [2, 4, -3, 1], S16)
        b.pmin(2, 0, 1, S16)
        b.pmax(3, 0, 1, S16)
        assert lanes(b, 2, S16) == [1, 4, -3, 0]
        assert lanes(b, 3, S16) == [2, 5, -3, 1]
        b.pcmpeq(4, 0, 1, S16)
        assert list(b.mm.read_lanes(4, U16)) == [0, 0, 0xFFFF, 0]
        b.pcmpgt(5, 0, 1, S16)
        assert list(b.mm.read_lanes(5, U16)) == [0, 0xFFFF, 0, 0]

    def test_logical(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [0xF0] * 8, U8)
        b.load_const(1, [0x0F] * 8, U8)
        b.pand(2, 0, 1)
        b.por(3, 0, 1)
        b.pxor(4, 0, 1)
        b.pandn(5, 0, 1)
        assert lanes(b, 2, U8) == [0] * 8
        assert lanes(b, 3, U8) == [0xFF] * 8
        assert lanes(b, 4, U8) == [0xFF] * 8
        assert lanes(b, 5, U8) == [0x0F] * 8

    def test_shifts_and_scale(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [4, 8, -8, 2], S16)
        b.psll(1, 0, 1, U16)
        assert list(b.mm.read_lanes(1, U16)) == [8, 16, (0x10000 - 8) * 2 & 0xFFFF, 4]
        b.psra(2, 0, 2, S16)
        assert lanes(b, 2, S16) == [1, 2, -2, 0]
        b.pshift_scale(3, 0, 2, S16)
        assert lanes(b, 3, S16) == [1, 2, -2, 1]

    def test_pack_unpack(self, mmx_builder):
        b = mmx_builder
        b.load_const(0, [300, -300, 7, 8], S16)
        b.load_const(1, [1, 2, 3, 4], S16)
        b.packus(2, 0, 1, S16)
        assert lanes(b, 2, U8) == [255, 0, 7, 8, 1, 2, 3, 4]
        b.packss(3, 0, 1, S16)
        assert list(b.mm.read_lanes(3, S8)) == [127, -128, 7, 8, 1, 2, 3, 4]
        b.punpckl(4, 0, 1, U16)
        assert list(b.mm.read_lanes(4, U16))[1] == 1


class TestMDMXAccumulators:
    def test_dot_product(self, mdmx_builder):
        b = mdmx_builder
        b.load_const(0, [1, 2, 3, 4], S16)
        b.load_const(1, [10, 20, 30, 40], S16)
        b.acc_clear(0, S16)
        b.acc_madd(0, 0, 1, S16)
        b.acc_madd(0, 0, 1, S16)
        b.acc_read_scalar(5, 0, S16)
        assert b.regs.read(5) == 2 * (10 + 40 + 90 + 160)

    def test_acc_read_into_register(self, mdmx_builder):
        b = mdmx_builder
        b.load_const(0, [100] * 4, S16)
        b.load_const(1, [100] * 4, S16)
        b.acc_clear(0, S16)
        b.acc_madd(0, 0, 1, S16)
        b.acc_read(2, 0, S16, shift=2)
        assert list(b.mm.read_lanes(2, S16)) == [2500] * 4

    def test_acc_add_sub_absdiff(self, mdmx_builder):
        b = mdmx_builder
        b.load_const(0, [5, 6, 7, 8], S16)
        b.acc_clear(1, S16)
        b.acc_add(1, 0, S16)
        b.acc_add(1, 0, S16)
        b.acc_sub(1, 0, S16)
        b.acc_read_scalar(3, 1, S16)
        assert b.regs.read(3) == 5 + 6 + 7 + 8
        b.load_const(1, [10, 0, 0, 0, 0, 0, 0, 0], U8)
        b.load_const(2, [0, 10, 0, 0, 0, 0, 0, 0], U8)
        b.acc_clear(2, U8)
        b.acc_absdiff(2, 1, 2, U8)
        b.acc_read_scalar(4, 2, U8)
        assert b.regs.read(4) == 20

    def test_acc_msub(self, mdmx_builder):
        b = mdmx_builder
        b.load_const(0, [2, 2, 2, 2], S16)
        b.load_const(1, [3, 3, 3, 3], S16)
        b.acc_clear(0, S16)
        b.acc_msub(0, 0, 1, S16)
        b.acc_read_scalar(2, 0, S16)
        assert b.regs.read(2) == -24

    def test_acc_instruction_metadata(self, mdmx_builder):
        b = mdmx_builder
        b.load_const(0, [1] * 4, S16)
        b.acc_clear(0, S16)
        b.acc_madd(0, 0, 0, S16)
        instr = b.trace[-1]
        assert instr.opclass is OpClass.MEDIA_ACC
        # the accumulator is both a source and a destination (the recurrence)
        acc_srcs = [r for r in instr.srcs if r.file is RegFile.ACC]
        acc_dsts = [r for r in instr.dsts if r.file is RegFile.ACC]
        assert acc_srcs and acc_dsts
        assert instr.vly == 1 and instr.vlx == 4

    def test_mdmx_isa_label(self, mdmx_builder):
        b = mdmx_builder
        b.pzero(0)
        assert b.trace.isa == "mdmx"
