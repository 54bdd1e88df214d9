"""Tests for saturating / wrapping lane arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.datatypes import S16, U8, U16, ElementType
from repro.common.saturate import (
    saturate,
    saturate_signed,
    saturate_unsigned,
    wrap,
)

S8 = ElementType(8, signed=True)


class TestSaturate:
    def test_unsigned_byte(self):
        values = np.array([-5, 0, 100, 256, 300])
        assert list(saturate_unsigned(values, 8)) == [0, 0, 100, 255, 255]

    def test_signed_byte(self):
        values = np.array([-200, -128, 0, 127, 200])
        assert list(saturate_signed(values, 8)) == [-128, -128, 0, 127, 127]

    def test_saturate_dispatch(self):
        values = np.array([-1, 70000, 12, 99999])
        assert list(saturate(values, U16)) == [0, 65535, 12, 65535]
        assert list(saturate(values, S16)) == [-1, 32767, 12, 32767]


class TestWrap:
    def test_wrap_unsigned(self):
        values = np.array([256, 257, -1, 255, 0, 1, 2, 3])
        assert list(wrap(values, U8)) == [0, 1, 255, 255, 0, 1, 2, 3]

    def test_wrap_signed(self):
        values = np.array([128, 129, -129, 127])
        assert list(wrap(values, S8)[:4]) == [-128, -127, 127, 127]

    def test_wrap_identity_in_range(self):
        values = np.array([-128, -1, 0, 127])
        assert list(wrap(values, S8)) == list(values)


@pytest.mark.parametrize("etype", [U8, S8, U16, S16], ids=lambda t: t.name)
class TestSaturationProperties:
    @given(values=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                           min_size=1, max_size=16))
    def test_saturation_bounds(self, etype, values):
        out = saturate(np.array(values, dtype=object), etype)
        assert all(etype.min <= int(v) <= etype.max for v in out)

    @given(values=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                           min_size=1, max_size=16))
    def test_saturation_idempotent(self, etype, values):
        arr = np.array(values, dtype=object)
        once = saturate(arr, etype)
        twice = saturate(np.array(list(once), dtype=object), etype)
        assert list(once) == list(twice)

    @given(values=st.lists(st.integers(), min_size=1, max_size=16))
    def test_values_in_range_unchanged_by_both(self, etype, values):
        clipped = [max(etype.min, min(etype.max, v)) for v in values]
        arr = np.array(clipped, dtype=object)
        assert list(saturate(arr, etype)) == clipped
        assert list(wrap(np.array(clipped), etype)) == clipped

    @given(values=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                           min_size=1, max_size=16))
    def test_wrap_is_modular(self, etype, values):
        out = wrap(np.array(values, dtype=object), etype)
        modulo = 1 << etype.bits
        for original, wrapped in zip(values, out):
            assert (int(wrapped) - original) % modulo == 0
            assert etype.min <= int(wrapped) <= etype.max
