"""Tests for the scalar (Alpha-like) builder: semantics and trace records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.datatypes import U8
from repro.isa.opclasses import OpClass, RegFile


class TestArithmetic:
    def test_li_mov(self, scalar_builder):
        b = scalar_builder
        b.li(1, 42)
        b.mov(2, 1)
        assert b.regs.read(2) == 42

    def test_add_sub(self, scalar_builder):
        b = scalar_builder
        b.li(1, 10)
        b.li(2, 3)
        b.add(3, 1, 2)
        b.sub(4, 1, 2)
        assert b.regs.read(3) == 13
        assert b.regs.read(4) == 7

    def test_immediates(self, scalar_builder):
        b = scalar_builder
        b.li(1, 10)
        b.addi(2, 1, 5)
        b.subi(3, 1, 5)
        b.muli(4, 1, 7)
        assert (b.regs.read(2), b.regs.read(3), b.regs.read(4)) == (15, 5, 70)

    def test_logical_and_shifts(self, scalar_builder):
        b = scalar_builder
        b.li(1, 0b1100)
        b.li(2, 0b1010)
        b.and_(3, 1, 2)
        b.or_(4, 1, 2)
        b.xor(5, 1, 2)
        b.slli(6, 1, 2)
        b.srli(7, 1, 2)
        b.srai(8, 1, 2)
        assert b.regs.read(3) == 0b1000
        assert b.regs.read(4) == 0b1110
        assert b.regs.read(5) == 0b0110
        assert b.regs.read(6) == 0b110000
        assert b.regs.read(7) == 0b11
        assert b.regs.read(8) == 0b11

    def test_mul_uses_imul_class(self, scalar_builder):
        b = scalar_builder
        b.li(1, 6)
        b.li(2, 7)
        b.mul(3, 1, 2)
        assert b.regs.read(3) == 42
        assert b.trace[-1].opclass is OpClass.IMUL

    def test_compare_and_cmov(self, scalar_builder):
        b = scalar_builder
        b.li(1, 5)
        b.li(2, 9)
        b.cmplt(3, 1, 2)
        assert b.regs.read(3) == 1
        b.cmple(4, 2, 2)
        assert b.regs.read(4) == 1
        b.cmpeq(5, 1, 2)
        assert b.regs.read(5) == 0
        b.cmplti(6, 1, 100)
        assert b.regs.read(6) == 1
        b.li(7, 0)
        b.cmovlt(7, 3, 2)   # cond true -> move
        assert b.regs.read(7) == 9
        b.li(8, 123)
        b.cmovlt(8, 5, 2)   # cond false -> keep
        assert b.regs.read(8) == 123

    def test_min_max_abs_clamp(self, scalar_builder):
        b = scalar_builder
        b.li(1, -7)
        b.li(2, 3)
        b.max_(3, 1, 2)
        b.min_(4, 1, 2)
        b.abs_(5, 1)
        assert (b.regs.read(3), b.regs.read(4), b.regs.read(5)) == (3, -7, 7)
        b.li(6, 300)
        b.clamp(6, 6, 0, 255)
        assert b.regs.read(6) == 255
        b.li(6, -3)
        b.clamp(6, 6, 0, 255)
        assert b.regs.read(6) == 0


class TestMemoryInstructions:
    def test_load_store_widths(self, scalar_builder):
        b = scalar_builder
        base = b.machine.memory.alloc(64)
        b.li(1, base)
        b.li(2, 0xFACE)
        b.stw(2, 1, 0)
        b.ldwu(3, 1, 0)
        assert b.regs.read(3) == 0xFACE
        b.ldw(4, 1, 0)
        assert b.regs.read(4) == 0xFACE - 0x10000  # sign extended
        b.li(5, 0xAB)
        b.stb(5, 1, 8)
        b.ldbu(6, 1, 8)
        assert b.regs.read(6) == 0xAB
        b.li(7, 0x11223344)
        b.stl(7, 1, 16)
        b.ldl(8, 1, 16)
        assert b.regs.read(8) == 0x11223344
        b.li(9, 0x1122334455667788)
        b.stq(9, 1, 24)
        b.ldq(10, 1, 24)
        assert b.regs.read(10) == 0x1122334455667788

    def test_load_records_base_register_dependence(self, scalar_builder):
        b = scalar_builder
        base = b.machine.memory.alloc(8)
        b.li(1, base)
        b.ldbu(2, 1, 0)
        instr = b.trace[-1]
        assert instr.opclass is OpClass.LOAD
        assert any(ref.file is RegFile.INT and ref.index == 1 for ref in instr.srcs)
        assert instr.dsts[0].index == 2


class TestControlFlow:
    def test_branch_and_jump_are_recorded(self, scalar_builder):
        b = scalar_builder
        b.li(1, 1)
        b.branch(1)
        b.jump()
        assert b.trace[-2].opclass is OpClass.BRANCH
        assert b.trace[-1].opclass is OpClass.BRANCH



class TestTraceMetadata:
    def test_scalar_instructions_are_not_vector(self, scalar_builder):
        b = scalar_builder
        b.li(1, 1)
        b.addi(1, 1, 1)
        for instr in b.trace:
            assert not instr.is_vector
            assert instr.ops == 1
            assert instr.vlx == 1 and instr.vly == 1

    def test_zero_register_write_ignored(self, scalar_builder):
        b = scalar_builder
        b.li(31, 55)
        assert b.regs.read(31) == 0

    def test_trace_isa_label(self, scalar_builder):
        b = scalar_builder
        b.li(1, 1)
        assert b.trace.isa == "scalar"
        assert b.trace[0].isa == "scalar"
