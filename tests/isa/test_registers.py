"""Tests for the architectural register files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.datatypes import S16, U8, pack_word
from repro.isa.registers import (
    AccumulatorFile,
    MatrixRegisterFile,
    MultimediaRegisterFile,
    ScalarRegisterFile,
    VectorControl,
    MAX_MATRIX_ROWS,
)


class TestScalarRegisterFile:
    def test_read_write(self):
        rf = ScalarRegisterFile()
        rf.write(3, 42)
        assert rf.read(3) == 42

    def test_zero_register_is_hardwired(self):
        rf = ScalarRegisterFile()
        rf.write(31, 99)
        assert rf.read(31) == 0

    def test_out_of_range(self):
        rf = ScalarRegisterFile()
        with pytest.raises(IndexError):
            rf.read(32)
        with pytest.raises(IndexError):
            rf.write(-1, 0)

    def test_snapshot_is_copy(self):
        rf = ScalarRegisterFile()
        rf.write(1, 5)
        snap = rf.snapshot()
        rf.write(1, 6)
        assert snap[1] == 5


class TestMultimediaRegisterFile:
    def test_masks_to_64_bits(self):
        rf = MultimediaRegisterFile()
        rf.write(0, (1 << 70) | 5)
        assert rf.read(0) == 5

    def test_lane_views(self):
        rf = MultimediaRegisterFile()
        rf.write(2, pack_word([1, 2, 3, 4], S16))
        assert list(rf.read_lanes(2, S16)) == [1, 2, 3, 4]

    def test_out_of_range(self):
        rf = MultimediaRegisterFile(num_regs=4)
        with pytest.raises(IndexError):
            rf.write(4, 0)


class TestAccumulatorFile:
    def test_read_returns_copy(self):
        af = AccumulatorFile(num_accs=2, lanes=8)
        af.write(0, [1, 2, 3])
        acc = af.read(0)
        acc[0] = 99
        assert af.read(0)[0] == 1

    def test_short_vector_is_padded(self):
        af = AccumulatorFile(num_accs=1, lanes=8)
        af.write(0, [7, 7])
        assert list(af.read(0)) == [7, 7, 0, 0, 0, 0, 0, 0]

    def test_too_many_lanes_rejected(self):
        af = AccumulatorFile(num_accs=1, lanes=4)
        with pytest.raises(ValueError):
            af.write(0, list(range(5)))

    def test_clear(self):
        af = AccumulatorFile(num_accs=1, lanes=4)
        af.write(0, [1, 2, 3, 4])
        af.clear(0)
        assert list(af.read(0)) == [0, 0, 0, 0]

    def test_index_check(self):
        af = AccumulatorFile(num_accs=2)
        with pytest.raises(IndexError):
            af.read(2)


class TestMatrixRegisterFile:
    def test_rows_default_zero(self):
        mf = MatrixRegisterFile()
        assert mf.read(0) == [0] * MAX_MATRIX_ROWS

    def test_write_partial_rows(self):
        mf = MatrixRegisterFile()
        mf.write(1, [10, 20, 30])
        rows = mf.read(1)
        assert rows[:3] == [10, 20, 30]

    def test_write_row(self):
        mf = MatrixRegisterFile()
        mf.write_row(2, 5, 0xFFFF)
        assert mf.read_row(2, 5) == 0xFFFF

    def test_words_masked_to_64_bits(self):
        mf = MatrixRegisterFile()
        mf.write_row(0, 0, 1 << 65)
        assert mf.read_row(0, 0) == 0

    def test_lane_matrix_view(self):
        mf = MatrixRegisterFile()
        mf.write(0, [0x0302_0100_0302_0100] * 2)
        lanes = mf.read_lanes(0, U8, 2)
        assert lanes.shape == (2, 8)
        assert list(lanes[0][:4]) == [0, 1, 2, 3]

    def test_too_many_rows_rejected(self):
        mf = MatrixRegisterFile()
        with pytest.raises(ValueError):
            mf.write(0, [0] * (MAX_MATRIX_ROWS + 1))

    def test_index_checks(self):
        mf = MatrixRegisterFile(num_regs=2)
        with pytest.raises(IndexError):
            mf.read(2)
        with pytest.raises(IndexError):
            mf.read_row(0, MAX_MATRIX_ROWS)


class TestVectorControl:
    def test_default_is_max(self):
        vc = VectorControl()
        assert vc.vl == MAX_MATRIX_ROWS

    def test_set_and_read(self):
        vc = VectorControl()
        vc.set_vl(3)
        assert vc.vl == 3

    def test_range_check(self):
        vc = VectorControl()
        with pytest.raises(ValueError):
            vc.set_vl(0)
        with pytest.raises(ValueError):
            vc.set_vl(MAX_MATRIX_ROWS + 1)
