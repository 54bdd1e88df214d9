"""Unit and property tests for packed word packing/unpacking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.datatypes import (
    S16,
    S32,
    U8,
    U16,
    U32,
    WORD_MASK,
    ElementType,
    pack_word,
    unpack_word,
)

S8 = ElementType(8, signed=True)
ALL_TYPES = [U8, S8, U16, S16, U32, S32]


class TestElementType:
    def test_lane_counts(self):
        assert U8.lanes == 8
        assert S16.lanes == 4
        assert U32.lanes == 2

    def test_ranges(self):
        assert (U8.min, U8.max) == (0, 255)
        assert (S8.min, S8.max) == (-128, 127)
        assert (S16.min, S16.max) == (-32768, 32767)
        assert (U16.min, U16.max) == (0, 65535)
        assert (S32.min, S32.max) == (-(1 << 31), (1 << 31) - 1)

    def test_mask(self):
        assert U8.mask == 0xFF
        assert S16.mask == 0xFFFF
        assert U32.mask == 0xFFFFFFFF

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            ElementType(12, signed=False)

    def test_names(self):
        assert U8.name == "u8"
        assert S32.name == "s32"


class TestPackUnpack:
    def test_unpack_lane_order_is_little_endian(self):
        # 0x0807060504030201 -> byte lanes 1..8 from least significant up.
        word = 0x0807060504030201
        lanes = unpack_word(word, U8)
        assert list(lanes) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_unpack_sign_extension(self):
        word = pack_word([-1, -2, 3, 4], S16)
        lanes = unpack_word(word, S16)
        assert list(lanes) == [-1, -2, 3, 4]

    def test_pack_truncates_to_width(self):
        word = pack_word([256 + 5, 0, 0, 0, 0, 0, 0, 0], U8)
        assert unpack_word(word, U8)[0] == 5

    def test_pack_wrong_lane_count_rejected(self):
        with pytest.raises(ValueError):
            pack_word([1, 2, 3], U8)

    def test_word_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            unpack_word(1 << 64, U8)
        with pytest.raises(ValueError):
            unpack_word(-1, U8)


@st.composite
def lanes_for(draw, etype: ElementType):
    return draw(
        st.lists(
            st.integers(min_value=etype.min, max_value=etype.max),
            min_size=etype.lanes,
            max_size=etype.lanes,
        )
    )


@pytest.mark.parametrize("etype", ALL_TYPES, ids=lambda t: t.name)
class TestPackUnpackProperties:
    @given(data=st.data())
    def test_roundtrip(self, etype, data):
        lanes = data.draw(lanes_for(etype))
        word = pack_word(lanes, etype)
        assert 0 <= word <= WORD_MASK
        assert list(unpack_word(word, etype)) == lanes

    @given(word=st.integers(min_value=0, max_value=WORD_MASK))
    def test_unpack_then_pack_is_identity(self, etype, word):
        assert pack_word(unpack_word(word, etype), etype) == word
