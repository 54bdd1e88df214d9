"""Hypothesis differential suite: lane-plane simdops vs pinned reference.

:mod:`repro.isa.simdops` is a vectorised rewrite of the scalar
:mod:`repro.isa.simdops_ref`.  For Hypothesis-drawn packed words, every
operation must match the reference bit for bit through both public entry
forms:

* the scalar form (Python ``int`` words in, ``int`` out);
* the array form (``uint64`` word vectors in, word vector out) the batched
  functional machine feeds, checked element against element.

The object-dtype escape hatches are exercised explicitly: ``pmulh`` on
32-bit lanes (the 32x32 product needs the exact high half) and
``pshift_scale`` with shifts whose rounding constant overflows ``int64``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.datatypes import U8, U16, S16, U32, S32, ElementType
from repro.isa import simdops, simdops_ref

S8 = ElementType(8, signed=True)
_ALL_ETYPES = [U8, S8, U16, S16, U32, S32]
_WIDE_ETYPES = [U16, S16, U32, S32]

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
etypes = st.sampled_from(_ALL_ETYPES)
wide_etypes = st.sampled_from(_WIDE_ETYPES)
word_lists = st.lists(words, min_size=1, max_size=8)

# (name, needs_etype): two-operand ops sharing the (a, b, etype) signature
_BINARY_OPS = ["padd", "psub", "pmull", "pmulh", "pabsdiff", "psad", "pavg",
               "pmin", "pmax", "pcmpeq", "pcmpgt", "punpckl", "punpckh"]
_BITWISE_OPS = ["pand", "pandn", "por", "pxor"]
_SHIFT_OPS = ["psll", "psrl", "psra"]


def _check_scalar_and_array(op_name, arglists, call):
    """``call(fast, args)`` == ``call(ref, args)`` scalar-wise, and the
    array form must reproduce the per-element scalar results."""
    fast = getattr(simdops, op_name)
    ref = getattr(simdops_ref, op_name)
    expected = [call(ref, args) for args in arglists]
    got = [call(fast, args) for args in arglists]
    assert got == expected, op_name
    return expected


@given(a=word_lists, b=words, etype=etypes)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("op", _BINARY_OPS)
def test_binary_ops_match_reference(op, a, b, etype):
    if op == "pmadd" and etype.bits > 32:
        return
    fast = getattr(simdops, op)
    ref = getattr(simdops_ref, op)
    expected = [ref(w, b, etype) for w in a]
    assert [fast(w, b, etype) for w in a] == expected
    out = fast(np.array(a, dtype=np.uint64), b, etype)
    assert isinstance(out, np.ndarray)
    assert [int(w) for w in out] == expected


@given(a=word_lists, b=words, etype=st.sampled_from([U8, S8, U16, S16]))
@settings(max_examples=60, deadline=None)
def test_pmadd_matches_reference(a, b, etype):
    expected = [simdops_ref.pmadd(w, b, etype) for w in a]
    assert [simdops.pmadd(w, b, etype) for w in a] == expected
    out = simdops.pmadd(np.array(a, dtype=np.uint64), b, etype)
    assert [int(w) for w in out] == expected


@given(a=word_lists, b=words)
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("op", _BITWISE_OPS)
def test_bitwise_ops_match_reference(op, a, b):
    fast = getattr(simdops, op)
    ref = getattr(simdops_ref, op)
    expected = [ref(w, b) for w in a]
    assert [fast(w, b) for w in a] == expected
    out = fast(np.array(a, dtype=np.uint64), b)
    assert [int(w) for w in out] == expected


@given(a=word_lists, shift=st.integers(min_value=0, max_value=40),
       etype=etypes)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("op", _SHIFT_OPS)
def test_shift_ops_match_reference(op, a, shift, etype):
    fast = getattr(simdops, op)
    ref = getattr(simdops_ref, op)
    expected = [ref(w, shift, etype) for w in a]
    assert [fast(w, shift, etype) for w in a] == expected
    out = fast(np.array(a, dtype=np.uint64), shift, etype)
    assert [int(w) for w in out] == expected


@given(a=word_lists, b=words, etype=wide_etypes)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("op", ["packss", "packus"])
def test_pack_ops_match_reference(op, a, b, etype):
    fast = getattr(simdops, op)
    ref = getattr(simdops_ref, op)
    expected = [ref(w, b, etype) for w in a]
    assert [fast(w, b, etype) for w in a] == expected
    out = fast(np.array(a, dtype=np.uint64), b, etype)
    assert [int(w) for w in out] == expected


@given(a=word_lists, b=words,
       rounding=st.booleans(), signed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_pmulh_32bit_object_escape(a, b, rounding, signed):
    """32x32 high halves overflow int64: the object-dtype escape hatch
    must stay exact for the full 64-bit product."""
    etype = S32 if signed else U32
    expected = [simdops_ref.pmulh(w, b, etype, rounding=rounding) for w in a]
    assert [simdops.pmulh(w, b, etype, rounding=rounding)
            for w in a] == expected
    out = simdops.pmulh(np.array(a, dtype=np.uint64), b, etype,
                        rounding=rounding)
    assert [int(w) for w in out] == expected


@given(a=word_lists, shift=st.integers(min_value=60, max_value=70),
       etype=etypes, saturating=st.sampled_from(["wrap", "sat"]))
@settings(max_examples=40, deadline=None)
def test_pshift_scale_huge_shift_object_escape(a, shift, etype, saturating):
    """Shifts >= 64 push the round-half-up constant past int64: the
    arbitrary-precision fallback must match the reference."""
    expected = [simdops_ref.pshift_scale(w, shift, etype, saturating)
                for w in a]
    assert [simdops.pshift_scale(w, shift, etype, saturating)
            for w in a] == expected
    out = simdops.pshift_scale(np.array(a, dtype=np.uint64), shift, etype,
                               saturating)
    assert [int(w) for w in out] == expected


@given(a=word_lists, shift=st.integers(min_value=0, max_value=20),
       etype=etypes, saturating=st.sampled_from(["wrap", "sat"]))
@settings(max_examples=40, deadline=None)
def test_pshift_scale_matches_reference(a, shift, etype, saturating):
    expected = [simdops_ref.pshift_scale(w, shift, etype, saturating)
                for w in a]
    assert [simdops.pshift_scale(w, shift, etype, saturating)
            for w in a] == expected
    out = simdops.pshift_scale(np.array(a, dtype=np.uint64), shift, etype,
                               saturating)
    assert [int(w) for w in out] == expected


@given(value=st.integers(min_value=-(1 << 40), max_value=1 << 40),
       etype=etypes)
@settings(max_examples=40, deadline=None)
def test_splat_matches_reference(value, etype):
    assert simdops.splat(value, etype) == simdops_ref.splat(value, etype)
