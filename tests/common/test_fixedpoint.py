"""Tests for fixed-point rounding helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.common.fixedpoint import round_half_up


class TestRoundHalfUp:
    def test_scalar_positive(self):
        assert round_half_up(5, 1) == 3       # 2.5 -> 3
        assert round_half_up(4, 1) == 2
        assert round_half_up(7, 2) == 2       # 1.75 -> 2

    def test_scalar_negative(self):
        # (x + bias) >> shift is an arithmetic shift: -3/2 = -1.5 rounds to -1.
        assert round_half_up(-3, 1) == -1
        assert round_half_up(-4, 1) == -2

    def test_zero_shift_is_identity(self):
        assert round_half_up(123, 0) == 123

    def test_array(self):
        arr = np.array([5, 4, -3, -4])
        assert list(round_half_up(arr, 1)) == [3, 2, -1, -2]


@given(value=st.integers(min_value=-(1 << 50), max_value=1 << 50),
       shift=st.integers(min_value=1, max_value=20))
def test_round_half_up_error_bound(value, shift):
    """Rounded result is within half a unit of the exact quotient."""
    result = round_half_up(value, shift)
    exact = value / (1 << shift)
    assert abs(result - exact) <= 0.5 + 1e-9
