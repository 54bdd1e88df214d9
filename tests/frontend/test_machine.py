"""Tests for the functional machine's memory and state."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.datatypes import S16, S32, U8, U16
from repro.frontend.machine import FunctionalMachine, Memory


class TestMemoryAllocation:
    def test_alloc_is_aligned(self):
        mem = Memory()
        addr = mem.alloc(10, align=64)
        assert addr % 64 == 0
        addr2 = mem.alloc(10, align=64)
        assert addr2 >= addr + 10

    def test_alloc_exhaustion(self):
        mem = Memory(size=256)
        with pytest.raises(MemoryError):
            mem.alloc(1024)

    def test_address_zero_never_allocated(self):
        mem = Memory()
        assert mem.alloc(8) != 0


class TestMemoryAccess:
    def test_bytes_roundtrip(self):
        mem = Memory()
        mem.write_bytes(128, b"hello123")
        assert mem.read_bytes(128, 8) == b"hello123"

    def test_uint_roundtrip(self):
        mem = Memory()
        mem.write_uint(64, 0xDEADBEEF, 4)
        assert mem.read_uint(64, 4) == 0xDEADBEEF

    def test_signed_read(self):
        mem = Memory()
        mem.write_uint(64, -5, 2)
        assert mem.read_sint(64, 2) == -5
        assert mem.read_uint(64, 2) == 0xFFFB

    def test_bounds_check(self):
        mem = Memory(size=128)
        with pytest.raises(IndexError):
            mem.read_bytes(120, 16)
        with pytest.raises(IndexError):
            mem.write_bytes(-1, b"x")


class TestArrayHelpers:
    @pytest.mark.parametrize("etype", [U8, S16, U16, S32], ids=lambda t: t.name)
    def test_roundtrip(self, etype):
        mem = Memory()
        values = np.array([etype.min, etype.max, 0, 1, 2, 3, 4, 5])
        addr = mem.alloc_array(values, etype)
        back = mem.read_array(addr, len(values), etype)
        assert np.array_equal(back, values)

    def test_2d_array_flattens_row_major(self):
        mem = Memory()
        matrix = np.arange(12).reshape(3, 4)
        addr = mem.alloc_array(matrix, U8)
        flat = mem.read_array(addr, 12, U8)
        assert np.array_equal(flat, matrix.reshape(-1))

    def test_alloc_zeros(self):
        mem = Memory()
        addr = mem.alloc_zeros(16, S16)
        assert np.array_equal(mem.read_array(addr, 16, S16), np.zeros(16))

    @given(values=st.lists(st.integers(min_value=-32768, max_value=32767),
                           min_size=1, max_size=64))
    def test_s16_roundtrip_property(self, values):
        mem = Memory()
        addr = mem.alloc_array(np.array(values), S16)
        assert list(mem.read_array(addr, len(values), S16)) == values


class TestFunctionalMachine:
    def test_register_files_present(self):
        m = FunctionalMachine()
        assert m.int_regs.num_regs == 32
        assert m.media_regs.num_regs == 32
        assert m.mdmx_accs.num_accs == 4
        assert m.matrix_regs.num_regs == 16
        assert m.mom_accs.num_accs == 2
        assert m.vector_control.vl >= 1

    def test_passthrough_helpers(self):
        m = FunctionalMachine()
        addr = m.alloc_array(np.array([1, 2, 3]), U8)
        assert list(m.read_array(addr, 3, U8)) == [1, 2, 3]


class TestVectorizedArrayAccess:
    """The NumPy array helpers must match the per-element reference
    semantics exactly: little-endian storage, two's-complement truncation
    on write, sign extension on read."""

    def _reference_write(self, mem, addr, values, etype):
        nbytes = etype.bits // 8
        for i, value in enumerate(values):
            mem.write_uint(addr + i * nbytes, int(value) & etype.mask, nbytes)

    @pytest.mark.parametrize("etype", [U8, S16, U16, S32])
    def test_write_matches_per_element_reference(self, etype):
        fast, slow = Memory(), Memory()
        rng = np.random.default_rng(7)
        values = rng.integers(-(1 << 40), 1 << 40, size=37, dtype=np.int64)
        fast.write_array(256, values, etype)
        self._reference_write(slow, 256, values, etype)
        assert (fast.read_bytes(256, 37 * etype.bits // 8)
                == slow.read_bytes(256, 37 * etype.bits // 8))

    @pytest.mark.parametrize("etype", [U8, S16, U16, S32])
    def test_read_sign_extends(self, etype):
        mem = Memory()
        extremes = np.array([etype.min, etype.max, 0, -1 & etype.mask],
                            dtype=np.int64)
        mem.write_array(512, extremes, etype)
        out = mem.read_array(512, len(extremes), etype)
        assert out.dtype == np.int64
        expected = [etype.min, etype.max, 0,
                    -1 if etype.signed else etype.mask]
        assert out.tolist() == expected

    def test_object_dtype_write_falls_back_exactly(self):
        mem = Memory()
        huge = np.array([1 << 100, -(1 << 77), 5], dtype=object)
        mem.write_array(128, huge, S32)
        out = mem.read_array(128, 3, S32)
        expected = [((1 << 100) & S32.mask), (-(1 << 77)) & S32.mask, 5]
        expected = [v - (1 << 32) if v & (1 << 31) else v for v in expected]
        assert out.tolist() == expected

    def test_read_returns_independent_copy(self):
        mem = Memory()
        mem.write_array(64, np.arange(8), U8)
        out = mem.read_array(64, 8, U8)
        out[:] = 99
        assert mem.read_array(64, 8, U8).tolist() == list(range(8))

    def test_array_bounds_checked(self):
        mem = Memory(size=128)
        with pytest.raises(IndexError):
            mem.write_array(120, np.arange(8), S16)
        with pytest.raises(IndexError):
            mem.read_array(120, 8, S16)

    def test_scalar_and_array_paths_share_storage(self):
        mem = Memory()
        mem.write_array(64, np.array([0x1234, -2]), S16)
        assert mem.read_uint(64, 2) == 0x1234
        assert mem.read_sint(66, 2) == -2
        mem.write_uint(64, 0x4321, 2)
        assert mem.read_array(64, 1, S16).tolist() == [0x4321]

    @given(st.lists(st.integers(min_value=-(1 << 62), max_value=1 << 62),
                    min_size=1, max_size=64),
           st.sampled_from([U8, S16, U16, S32]))
    def test_roundtrip_truncation_property(self, values, etype):
        mem = Memory()
        mem.write_array(1024, np.array(values, dtype=np.int64), etype)
        out = mem.read_array(1024, len(values), etype)
        for value, got in zip(values, out):
            lane = value & etype.mask
            if etype.signed and lane & (1 << (etype.bits - 1)):
                lane -= 1 << etype.bits
            assert got == lane
