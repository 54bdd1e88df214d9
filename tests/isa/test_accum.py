"""Tests for packed-accumulator semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.datatypes import S16, U8, pack_word, unpack_word
from repro.isa import accum


def word_of(lanes, etype):
    return pack_word(np.asarray(lanes) & etype.mask, etype)


def lanes_strategy(etype, n=None):
    return st.lists(st.integers(min_value=etype.min, max_value=etype.max),
                    min_size=n or etype.lanes, max_size=n or etype.lanes)


class TestAccumulateOps:
    def test_mul_add(self):
        acc = np.zeros(8, dtype=object)
        a = word_of([1, 2, 3, 4], S16)
        b = word_of([10, 20, 30, 40], S16)
        acc = accum.acc_mul_add(acc, a, b, S16)
        assert list(acc[:4]) == [10, 40, 90, 160]
        acc = accum.acc_mul_add(acc, a, b, S16)
        assert list(acc[:4]) == [20, 80, 180, 320]

    def test_mul_sub(self):
        acc = np.zeros(8, dtype=object)
        a = word_of([2, 3, 4, 5], S16)
        b = word_of([1, 1, 1, 1], S16)
        acc = accum.acc_mul_sub(acc, a, b, S16)
        assert list(acc[:4]) == [-2, -3, -4, -5]

    def test_add_sub(self):
        acc = np.zeros(8, dtype=object)
        a = word_of([5, -5, 7, 0], S16)
        acc = accum.acc_add(acc, a, S16)
        acc = accum.acc_add(acc, a, S16)
        assert list(acc[:4]) == [10, -10, 14, 0]
        acc = accum.acc_sub(acc, a, S16)
        assert list(acc[:4]) == [5, -5, 7, 0]

    def test_abs_diff_add(self):
        acc = np.zeros(8, dtype=object)
        a = word_of([10, 0, 200, 5, 0, 0, 0, 0], U8)
        b = word_of([0, 10, 100, 5, 0, 0, 0, 0], U8)
        acc = accum.acc_abs_diff_add(acc, a, b, U8)
        assert list(acc[:4]) == [10, 10, 100, 0]

    def test_accumulation_exceeds_lane_width(self):
        """Precision: the accumulator holds values beyond 16 bits."""
        acc = np.zeros(8, dtype=object)
        a = word_of([32767] * 4, S16)
        b = word_of([32767] * 4, S16)
        for _ in range(10):
            acc = accum.acc_mul_add(acc, a, b, S16)
        assert acc[0] == 10 * 32767 * 32767
        assert acc[0] > (1 << 32)

    @given(a=lanes_strategy(S16), b=lanes_strategy(S16), repeats=st.integers(1, 5))
    def test_mul_add_matches_reference(self, a, b, repeats):
        acc = np.zeros(8, dtype=object)
        for _ in range(repeats):
            acc = accum.acc_mul_add(acc, word_of(a, S16), word_of(b, S16), S16)
        expected = [repeats * x * y for x, y in zip(a, b)]
        assert list(acc[:4]) == expected


class TestReadOut:
    def test_read_saturates(self):
        acc = np.zeros(8, dtype=object)
        acc[:4] = [100000, -100000, 5, -5]
        word = accum.acc_read(acc, S16, shift=0)
        assert list(unpack_word(word, S16)) == [32767, -32768, 5, -5]

    def test_read_with_shift_and_rounding(self):
        acc = np.zeros(8, dtype=object)
        acc[:4] = [5, 4, -5, 0]
        word = accum.acc_read(acc, S16, shift=1, rounding=True)
        assert list(unpack_word(word, S16)) == [3, 2, -2, 0]

    def test_read_without_rounding(self):
        acc = np.zeros(8, dtype=object)
        acc[:4] = [5, 4, -5, 0]
        word = accum.acc_read(acc, S16, shift=1, rounding=False)
        assert list(unpack_word(word, S16)) == [2, 2, -3, 0]

    def test_read_without_saturation_wraps(self):
        acc = np.zeros(8, dtype=object)
        acc[:4] = [1 << 16, 1, 2, 3]
        word = accum.acc_read(acc, S16, shift=0, saturating=False)
        assert unpack_word(word, S16)[0] == 0

    def test_read_scalar_sums_lanes(self):
        acc = np.zeros(8, dtype=object)
        acc[:4] = [1, 2, 3, 4]
        assert accum.acc_read_scalar(acc, 4) == 10
        assert accum.acc_read_scalar(acc, 2) == 3

    def test_read_scalar_with_shift(self):
        acc = np.zeros(8, dtype=object)
        acc[:4] = [5, 5, 5, 5]
        assert accum.acc_read_scalar(acc, 4, shift=2) == 5

    @given(values=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                           min_size=8, max_size=8))
    def test_read_scalar_matches_sum(self, values):
        acc = np.array(values, dtype=object)
        assert accum.acc_read_scalar(acc, 8) == sum(values)

    @given(values=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                           min_size=8, max_size=8),
           shift=st.integers(0, 16))
    def test_read_bounds(self, values, shift):
        acc = np.array(values, dtype=object)
        word = accum.acc_read(acc, S16, shift=shift)
        lanes = unpack_word(word, S16)
        assert all(-32768 <= v <= 32767 for v in lanes)
