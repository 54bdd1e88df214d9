"""Packed sub-word element types and 64-bit word packing/unpacking.

The multimedia ISAs in the paper manipulate 64-bit registers that hold a
number of smaller elements:

* eight 8-bit elements,
* four 16-bit elements, or
* two 32-bit elements.

A packed word is represented here as a Python ``int`` in ``[0, 2**64)`` —
Python integers are arbitrary precision so there is no overflow hazard — and
lane views are NumPy ``int64`` arrays (wide enough to hold any signed or
unsigned 8/16/32-bit lane value and intermediate products are computed with
``object`` arrays where necessary).

Lane 0 is the least-significant lane of the word, matching the little-endian
layout of MMX/MDMX registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


@dataclass(frozen=True)
class ElementType:
    """A packed sub-word element type.

    Attributes
    ----------
    bits:
        Element width in bits (8, 16 or 32).
    signed:
        Whether lane values are interpreted as two's-complement signed.
    """

    bits: int
    signed: bool

    def __post_init__(self) -> None:
        if self.bits not in (8, 16, 32):
            raise ValueError(f"unsupported element width: {self.bits}")

    @property
    def lanes(self) -> int:
        """Number of elements that fit in a 64-bit word."""
        return WORD_BITS // self.bits

    @property
    def mask(self) -> int:
        """Bit mask selecting one lane."""
        return (1 << self.bits) - 1

    @property
    def min(self) -> int:
        """Smallest representable lane value."""
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max(self) -> int:
        """Largest representable lane value."""
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    @property
    def name(self) -> str:
        return f"{'s' if self.signed else 'u'}{self.bits}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


U8 = ElementType(8, signed=False)
U16 = ElementType(16, signed=False)
S16 = ElementType(16, signed=True)
U32 = ElementType(32, signed=False)
S32 = ElementType(32, signed=True)


def _as_word(value: int) -> int:
    value = int(value)
    if not 0 <= value <= WORD_MASK:
        raise ValueError(f"packed word out of range: {value:#x}")
    return value


def unpack_word(word: int, etype: ElementType) -> np.ndarray:
    """Split a 64-bit packed word into its lanes.

    Returns an ``int64`` array of length ``etype.lanes``; lane 0 is the
    least-significant lane.  Signed element types are sign-extended.
    """
    word = _as_word(word)
    lanes = np.empty(etype.lanes, dtype=np.int64)
    mask = etype.mask
    sign_bit = 1 << (etype.bits - 1)
    for i in range(etype.lanes):
        lane = (word >> (i * etype.bits)) & mask
        if etype.signed and lane & sign_bit:
            lane -= 1 << etype.bits
        lanes[i] = lane
    return lanes


def pack_word(lanes: Sequence[int] | np.ndarray, etype: ElementType) -> int:
    """Pack lane values into a 64-bit word, truncating each lane to width.

    Lane values outside the representable range are wrapped (two's
    complement); callers that need saturation must apply it before packing.
    """
    arr = np.asarray(lanes)
    if arr.shape != (etype.lanes,):
        raise ValueError(
            f"expected {etype.lanes} lanes for {etype.name}, got shape {arr.shape}"
        )
    word = 0
    mask = etype.mask
    for i in range(etype.lanes):
        word |= (int(arr[i]) & mask) << (i * etype.bits)
    return word


# -- lane planes (batched pack/unpack) -------------------------------------
#
# The per-word helpers above are the pinned scalar reference; the plane
# helpers below are the vectorised equivalents used by the fast functional
# semantics.  A "lane plane" is an ``int64`` array whose last axis is the
# lane axis: shape ``(..., etype.lanes)``.  Packing/unpacking any number of
# words is one NumPy shift/mask pass instead of a Python loop per lane.

_LANE_SHIFTS = {
    bits: (np.arange(WORD_BITS // bits, dtype=np.uint64) * np.uint64(bits))
    for bits in (8, 16, 32)
}

#: Little-endian lane dtypes, keyed by ``(bits, signed)``.
_WORD_LANE_DTYPES = {
    (8, False): np.dtype("<u1"),
    (8, True): np.dtype("<i1"),
    (16, False): np.dtype("<u2"),
    (16, True): np.dtype("<i2"),
    (32, False): np.dtype("<u4"),
    (32, True): np.dtype("<i4"),
}


def unpack_word_fast(word: int, etype: ElementType) -> np.ndarray:
    """Vectorised :func:`unpack_word`: one byte-level reinterpretation.

    Viewing the word's little-endian bytes through the lane dtype yields the
    exact lanes — including sign extension — without a per-lane shift loop.
    Bit-identical to :func:`unpack_word` (pinned by the differential tests).
    """
    return np.frombuffer(
        int(word).to_bytes(8, "little"),
        dtype=_WORD_LANE_DTYPES[(etype.bits, etype.signed)],
    ).astype(np.int64)


def unpack_planes(words: "int | Sequence[int] | np.ndarray",
                  etype: ElementType) -> np.ndarray:
    """Unpack packed words (scalar or any array shape) into lane planes.

    Returns an ``int64`` array of shape ``words.shape + (etype.lanes,)``
    with lane 0 least significant; signed element types are sign-extended.
    Exactly equivalent to mapping :func:`unpack_word` over ``words``.
    """
    w = np.asarray(words, dtype=np.uint64)
    shifts = _LANE_SHIFTS[etype.bits]
    lanes = ((w[..., None] >> shifts) & np.uint64(etype.mask)).astype(np.int64)
    if etype.signed:
        sign = np.int64(1 << (etype.bits - 1))
        lanes = (lanes ^ sign) - sign
    return lanes


def pack_planes(planes: np.ndarray, etype: ElementType) -> np.ndarray:
    """Pack lane planes back into words, truncating each lane to width.

    The inverse of :func:`unpack_planes`: the last axis must have length
    ``etype.lanes`` and is folded into a ``uint64`` word per row (lane
    values wrap, matching :func:`pack_word`).  ``object``-dtype planes —
    lanes holding Python ints too large for ``int64`` — take an exact
    arbitrary-precision path and return an ``object`` array of words.
    """
    arr = np.asarray(planes)
    if arr.ndim == 0 or arr.shape[-1] != etype.lanes:
        raise ValueError(
            f"expected trailing axis of {etype.lanes} lanes for {etype.name}, "
            f"got shape {arr.shape}"
        )
    if arr.dtype == object:
        mask = etype.mask
        out = np.zeros(arr.shape[:-1], dtype=object)
        for i in range(etype.lanes):
            out = out + ((arr[..., i] & mask) << (i * etype.bits))
        return out
    u = arr.astype(np.uint64) & np.uint64(etype.mask)
    return np.bitwise_or.reduce(u << _LANE_SHIFTS[etype.bits], axis=-1)
