"""Tests for the matrix (dimension Y) operation semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.datatypes import S16, U8, pack_word, unpack_word
from repro.isa import matrixops


def rows_of(matrix, etype):
    return [pack_word(np.asarray(row) & etype.mask, etype) for row in matrix]


def matrix_strategy(etype, rows, cols=None):
    cols = cols or etype.lanes
    return st.lists(
        st.lists(st.integers(min_value=etype.min, max_value=etype.max),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


class TestTranspose:
    def test_square_byte_transpose(self):
        matrix = np.arange(64).reshape(8, 8)
        rows = rows_of(matrix, U8)
        out = matrixops.transpose(rows, U8, 8)
        result = np.stack([unpack_word(out[r], U8) for r in range(8)])
        assert np.array_equal(result, matrix.T)

    def test_transpose_involution(self):
        matrix = np.arange(64).reshape(8, 8) * 3 % 251
        rows = rows_of(matrix, U8)
        once = matrixops.transpose(rows, U8, 8)
        twice = matrixops.transpose(once, U8, 8)
        assert twice[:8] == rows[:8]

    def test_transpose_pair_square_16bit(self):
        matrix = np.arange(64).reshape(8, 8) - 30
        lo = rows_of(matrix[:, :4], S16)
        hi = rows_of(matrix[:, 4:], S16)
        out_lo, out_hi = matrixops.transpose_pair(lo, hi, S16, 8)
        result = np.hstack([
            np.stack([unpack_word(out_lo[r], S16) for r in range(8)]),
            np.stack([unpack_word(out_hi[r], S16) for r in range(8)]),
        ])
        assert np.array_equal(result, matrix.T)

    def test_transpose_pair_requires_square(self):
        lo = rows_of(np.zeros((4, 4), dtype=np.int64), S16)
        hi = rows_of(np.zeros((4, 4), dtype=np.int64), S16)
        with pytest.raises(ValueError):
            matrixops.transpose_pair(lo, hi, S16, 4)

    @given(m=matrix_strategy(S16, 8, 8))
    def test_transpose_pair_involution(self, m):
        matrix = np.array(m)
        lo = rows_of(matrix[:, :4], S16)
        hi = rows_of(matrix[:, 4:], S16)
        t_lo, t_hi = matrixops.transpose_pair(lo, hi, S16, 8)
        b_lo, b_hi = matrixops.transpose_pair(t_lo, t_hi, S16, 8)
        assert b_lo[:8] == lo[:8] and b_hi[:8] == hi[:8]


class TestReductions:
    def test_reduce_mul_add(self):
        acc = np.zeros(8, dtype=object)
        a = rows_of([[1, 2, 3, 4], [5, 6, 7, 8]], S16)
        b = rows_of([[1, 1, 1, 1], [2, 2, 2, 2]], S16)
        out = matrixops.reduce_mul_add(acc, a, b, S16, 2)
        assert list(out[:4]) == [1 + 10, 2 + 12, 3 + 14, 4 + 16]

    def test_reduce_add(self):
        acc = np.zeros(8, dtype=object)
        a = rows_of([[1, 2, 3, 4]] * 5, S16)
        out = matrixops.reduce_add(acc, a, S16, 5)
        assert list(out[:4]) == [5, 10, 15, 20]

    def test_reduce_abs_diff_add(self):
        acc = np.zeros(8, dtype=object)
        a = rows_of([[10, 0, 5, 7, 0, 0, 0, 0]] * 2, U8)
        b = rows_of([[0, 10, 5, 3, 0, 0, 0, 0]] * 2, U8)
        out = matrixops.reduce_abs_diff_add(acc, a, b, U8, 2)
        assert list(out[:4]) == [20, 20, 0, 8]

    def test_reduction_accumulates_into_existing_value(self):
        acc = np.zeros(8, dtype=object)
        acc[0] = 100
        a = rows_of([[1, 0, 0, 0]], S16)
        out = matrixops.reduce_add(acc, a, S16, 1)
        assert out[0] == 101

    @given(a=matrix_strategy(S16, 6), b=matrix_strategy(S16, 6))
    def test_reduce_mul_add_matches_numpy(self, a, b):
        acc = np.zeros(8, dtype=object)
        out = matrixops.reduce_mul_add(acc, rows_of(a, S16), rows_of(b, S16), S16, 6)
        expected = (np.array(a, dtype=np.int64) * np.array(b, dtype=np.int64)).sum(axis=0)
        assert list(out[:4]) == list(expected)

    @given(a=matrix_strategy(U8, 8), b=matrix_strategy(U8, 8))
    def test_reduce_absdiff_matches_numpy(self, a, b):
        acc = np.zeros(8, dtype=object)
        out = matrixops.reduce_abs_diff_add(acc, rows_of(a, U8), rows_of(b, U8), U8, 8)
        expected = np.abs(np.array(a) - np.array(b)).sum(axis=0)
        assert list(out[: len(expected[0:])][:8]) == list(expected)

