"""Boundary-value goldens for the saturating / narrowing packed ops.

The lane-plane rewrite of :mod:`repro.isa.simdops` must agree with the
pinned scalar reference (:mod:`repro.isa.simdops_ref`) exactly at the lane
extremes, where saturation, sign extension and narrowing all interact.
These tests pin three things at once for ``packss`` / ``packus`` / ``psra``
/ ``pavg``:

* literal golden words (hand-checked against the MMX/MDMX definitions), so
  a semantics change that drifts *both* implementations together still
  fails loudly;
* reference == fast scalar path on every ElementType's boundary lanes;
* reference == fast array path (the word-array form the batched functional
  machine uses), element for element.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.datatypes import U8, U16, S16, U32, S32, ElementType, pack_word
from repro.isa import simdops, simdops_ref

S8 = ElementType(8, signed=True)
_ALL_ETYPES = [U8, S8, U16, S16, U32, S32]
_WIDE_ETYPES = [U16, S16, U32, S32]  # legal pack sources (narrow to half)

_ETYPE_IDS = {8: "8", 16: "16", 32: "32"}


def _eid(etype):
    return ("S" if etype.signed else "U") + str(etype.bits)


def _boundary_lanes(etype):
    """The interesting values of one lane: extremes and their neighbours."""
    vals = [etype.min, etype.min + 1, 0, 1, etype.max - 1, etype.max]
    if etype.signed:
        vals.append(-1)
    return vals


def _boundary_words(etype):
    """Words cycling the boundary set through the lanes, plus rotations."""
    vals = _boundary_lanes(etype)
    words = []
    for rot in range(len(vals)):
        lanes = [vals[(i + rot) % len(vals)] for i in range(etype.lanes)]
        words.append(pack_word(lanes, etype))
    return words


# ----------------------------------------------------------------------
# Literal goldens (values generated from the pinned scalar reference and
# hand-checked against the packed-arithmetic definitions).

_PACK_GOLDENS = [
    # (op, src_etype, a, b, expected)
    ("packss", S16, 0x7FFE80017FFF8000, 0x80000001FFFF0000,
     0x8001FF007F807F80),
    ("packus", S16, 0x7FFE80017FFF8000, 0x80000001FFFF0000,
     0x00010000FF00FF00),
    ("packss", S32, 0x7FFFFFFF80000000, 0xFFFFFFFF00000000,
     0xFFFF00007FFF8000),
    ("packus", S32, 0x7FFFFFFF80000000, 0xFFFFFFFF00000000,
     0x00000000FFFF0000),
    ("packss", U16, 0xFFFE0001FFFF0000, 0x00000001FFFF0000,
     0x00017F007F017F00),
    ("packus", U16, 0xFFFE0001FFFF0000, 0x00000001FFFF0000,
     0x0001FF00FF01FF00),
    ("packss", U32, 0xFFFFFFFF00000000, 0xFFFFFFFF00000000,
     0x7FFF00007FFF0000),
    ("packus", U32, 0xFFFFFFFF00000000, 0xFFFFFFFF00000000,
     0xFFFF0000FFFF0000),
]

_PSRA_GOLDENS = [
    # (etype, word, shift, expected) — unsigned lanes still shift
    # arithmetically (sign-filled) and reinterpret, as on MDMX.
    (U8, 0xFE01FF00FE01FF00, 1, 0xFF00FF00FF00FF00),
    (U8, 0xFE01FF00FE01FF00, 7, 0xFF00FF00FF00FF00),
    (S8, 0x7EFF7F807EFF7F80, 1, 0x3FFF3FC03FFF3FC0),
    (S8, 0x7EFF7F807EFF7F80, 7, 0x00FF00FF00FF00FF),
    (U16, 0xFFFE0001FFFF0000, 1, 0xFFFF0000FFFF0000),
    (U16, 0xFFFE0001FFFF0000, 15, 0xFFFF0000FFFF0000),
    (S16, 0x7FFEFFFF7FFF8000, 1, 0x3FFFFFFF3FFFC000),
    (S16, 0x7FFEFFFF7FFF8000, 15, 0x0000FFFF0000FFFF),
    (U32, 0xFFFFFFFF00000000, 1, 0xFFFFFFFF00000000),
    (U32, 0xFFFFFFFF00000000, 31, 0xFFFFFFFF00000000),
    (S32, 0x7FFFFFFF80000000, 1, 0x3FFFFFFFC0000000),
    (S32, 0x7FFFFFFF80000000, 31, 0x00000000FFFFFFFF),
]

_PAVG_GOLDENS = [
    # (etype, a, b, expected): (a + b + 1) >> 1 per lane, exact at extremes
    (U8, 0xFF00FF00FF00FF00, 0x0001FFFF0001FFFF, 0x8001FF808001FF80),
    (S8, 0x7F807F807F807F80, 0x80817F7F80817F7F, 0x00817F0000817F00),
    (U16, 0xFFFF0000FFFF0000, 0x00000001FFFFFFFF, 0x80000001FFFF8000),
    (S16, 0x7FFF80007FFF8000, 0x800080017FFF7FFF, 0x000080017FFF0000),
    (U32, 0xFFFFFFFF00000000, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFF80000000),
    (S32, 0x7FFFFFFF80000000, 0x7FFFFFFF7FFFFFFF, 0x7FFFFFFF00000000),
]


class TestLiteralGoldens:
    """Hard-coded words: both implementations must match the constants."""

    @pytest.mark.parametrize(
        "op,etype,a,b,expected", _PACK_GOLDENS,
        ids=[f"{op}-{_eid(et)}" for op, et, *_ in _PACK_GOLDENS])
    def test_pack_goldens(self, op, etype, a, b, expected):
        fast = getattr(simdops, op)
        ref = getattr(simdops_ref, op)
        assert ref(a, b, etype) == expected
        assert fast(a, b, etype) == expected

    @pytest.mark.parametrize(
        "etype,word,shift,expected", _PSRA_GOLDENS,
        ids=[f"{_eid(et)}-sh{sh}" for et, _, sh, _x in _PSRA_GOLDENS])
    def test_psra_goldens(self, etype, word, shift, expected):
        assert simdops_ref.psra(word, shift, etype) == expected
        assert simdops.psra(word, shift, etype) == expected

    @pytest.mark.parametrize(
        "etype,a,b,expected", _PAVG_GOLDENS,
        ids=[_eid(et) for et, *_ in _PAVG_GOLDENS])
    def test_pavg_goldens(self, etype, a, b, expected):
        assert simdops_ref.pavg(a, b, etype) == expected
        assert simdops.pavg(a, b, etype) == expected


class TestBoundarySweep:
    """Every boundary-word combination: fast paths == pinned reference."""

    @pytest.mark.parametrize("etype", _WIDE_ETYPES, ids=_eid)
    @pytest.mark.parametrize("op", ["packss", "packus"])
    def test_pack_boundaries(self, op, etype):
        fast = getattr(simdops, op)
        ref = getattr(simdops_ref, op)
        words = _boundary_words(etype)
        for a in words:
            for b in words:
                expected = ref(a, b, etype)
                assert fast(a, b, etype) == expected
        # array path: all pairs at once, element for element
        aa = np.array([a for a in words for _ in words], dtype=np.uint64)
        bb = np.array(words * len(words), dtype=np.uint64)
        out = fast(aa, bb, etype)
        assert isinstance(out, np.ndarray)
        expect = [ref(int(a), int(b), etype) for a, b in zip(aa, bb)]
        assert [int(w) for w in out] == expect

    @pytest.mark.parametrize("etype", _ALL_ETYPES, ids=_eid)
    def test_psra_boundaries(self, etype):
        words = _boundary_words(etype)
        shifts = [0, 1, etype.bits // 2, etype.bits - 1, etype.bits]
        for w in words:
            for sh in shifts:
                expected = simdops_ref.psra(w, sh, etype)
                assert simdops.psra(w, sh, etype) == expected
        arr = np.array(words, dtype=np.uint64)
        for sh in shifts:
            out = simdops.psra(arr, sh, etype)
            expect = [simdops_ref.psra(int(w), sh, etype) for w in arr]
            assert [int(w) for w in out] == expect

    @pytest.mark.parametrize("etype", _ALL_ETYPES, ids=_eid)
    def test_pavg_boundaries(self, etype):
        words = _boundary_words(etype)
        for a in words:
            for b in words:
                expected = simdops_ref.pavg(a, b, etype)
                assert simdops.pavg(a, b, etype) == expected
        aa = np.array([a for a in words for _ in words], dtype=np.uint64)
        bb = np.array(words * len(words), dtype=np.uint64)
        out = simdops.pavg(aa, bb, etype)
        expect = [simdops_ref.pavg(int(a), int(b), etype) for a, b in zip(aa, bb)]
        assert [int(w) for w in out] == expect

    @pytest.mark.parametrize("etype", _ALL_ETYPES, ids=_eid)
    @pytest.mark.parametrize("saturating", ["wrap", "sat"])
    def test_padd_psub_boundaries(self, etype, saturating):
        """The wrap/sat narrowing shared by the whole module, at extremes."""
        words = _boundary_words(etype)
        for a in words:
            for b in words:
                assert (simdops.padd(a, b, etype, saturating)
                        == simdops_ref.padd(a, b, etype, saturating))
                assert (simdops.psub(a, b, etype, saturating)
                        == simdops_ref.psub(a, b, etype, saturating))
