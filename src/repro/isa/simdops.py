"""Packed (sub-word, dimension X) operation semantics over lane planes.

These pure functions implement the MMX-like instruction semantics shared by
the MMX, MDMX and MOM models.  Every function is **array-polymorphic** over
its packed-word arguments:

* called with Python ``int`` words it returns an ``int`` word — the form the
  per-instruction builders use, and the signature the pinned reference
  :mod:`repro.isa.simdops_ref` shares;
* called with a ``uint64`` ndarray of words (any shape) it applies the same
  semantics element-wise and returns an ndarray of words — the form the MOM
  matrix instructions use to process all dimension-Y rows in one call.

Internally each op unpacks its operands into *lane planes* (``int64``
arrays whose last axis is the lane axis, via
:func:`~repro.common.datatypes.unpack_planes`), runs one NumPy array
program, and packs the result back.  All intermediates are proven to fit
``int64`` for 8/16/32-bit lanes except where noted (32-bit ``pmulh`` and
oversized ``pshift_scale`` shifts), which drop to the arbitrary-precision
``object`` escape hatch.  Semantics are pinned bit-for-bit against
:mod:`repro.isa.simdops_ref` by the differential suites in ``tests/isa``.
"""

from __future__ import annotations

import numpy as np

from repro.common.datatypes import (
    ElementType,
    U8,
    S16,
    WORD_MASK,
    pack_planes,
    unpack_planes,
)
from repro.common.saturate import saturate, wrap

__all__ = [
    "padd",
    "psub",
    "pmull",
    "pmulh",
    "pmadd",
    "psad",
    "pabsdiff",
    "pavg",
    "pmin",
    "pmax",
    "pcmpeq",
    "pcmpgt",
    "pand",
    "pandn",
    "por",
    "pxor",
    "psll",
    "psrl",
    "psra",
    "packss",
    "packus",
    "punpckl",
    "punpckh",
    "pshift_scale",
    "splat",
    "pzero",
]

#: Little-endian lane dtypes for the single-word fast paths.
_LANE_DTYPES = {
    (8, False): np.dtype("<u1"),
    (8, True): np.dtype("<i1"),
    (16, False): np.dtype("<u2"),
    (16, True): np.dtype("<i2"),
    (32, False): np.dtype("<u4"),
    (32, True): np.dtype("<i4"),
}
_PACK_DTYPES = {8: np.dtype("<u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4")}


def _is_words_array(*words) -> bool:
    return any(isinstance(w, np.ndarray) for w in words)


def _lanes(words, etype: ElementType) -> np.ndarray:
    """Unpack words (int or word array) into an ``int64`` lane plane."""
    if type(words) is int:
        # Single-word fast path: one byte-level reinterpretation gives the
        # exact lanes (including sign extension) without a shift cascade.
        return np.frombuffer(
            words.to_bytes(8, "little"),
            dtype=_LANE_DTYPES[(etype.bits, etype.signed)],
        ).astype(np.int64)
    return unpack_planes(words, etype)


def _pack(planes: np.ndarray, etype: ElementType, scalar: bool):
    """Pack a lane plane back into an ``int`` word or a word array."""
    if scalar and planes.dtype != object:
        lanes = (planes & np.int64(etype.mask)).astype(_PACK_DTYPES[etype.bits])
        return int.from_bytes(lanes.tobytes(), "little")
    words = pack_planes(planes, etype)
    return int(words) if scalar else words


def _wrap_fast(values: np.ndarray, etype: ElementType) -> np.ndarray:
    """Inline int64 wrap (mod ``2**bits`` + sign reinterpret) for hot paths.

    Bit-identical to :func:`repro.common.saturate.wrap`; ``object``-dtype
    planes defer to it (the arbitrary-precision escape hatch).
    """
    if values.dtype == object:
        return wrap(values, etype)
    if values.dtype != np.int64:
        values = values.astype(np.int64)
    masked = values & np.int64(etype.mask)
    if etype.signed:
        masked = masked - ((masked & np.int64(1 << (etype.bits - 1))) << 1)
    return masked


def _narrow(values: np.ndarray, etype: ElementType, saturating: str) -> np.ndarray:
    """Reduce lane results back to ``etype`` lanes (wrap or saturate)."""
    if saturating == "wrap":
        return _wrap_fast(values, etype)
    if saturating == "sat":
        if values.dtype == object:
            return saturate(values, etype).astype(np.int64)
        return np.minimum(np.maximum(values, etype.min), etype.max)
    raise ValueError(f"unknown narrowing mode {saturating!r}")


def padd(a, b, etype: ElementType, saturating: str = "wrap"):
    """Packed add.  ``saturating`` is ``"wrap"`` or ``"sat"``."""
    scalar = not _is_words_array(a, b)
    out = _narrow(_lanes(a, etype) + _lanes(b, etype), etype, saturating)
    return _pack(out, etype, scalar)


def psub(a, b, etype: ElementType, saturating: str = "wrap"):
    """Packed subtract."""
    scalar = not _is_words_array(a, b)
    out = _narrow(_lanes(a, etype) - _lanes(b, etype), etype, saturating)
    return _pack(out, etype, scalar)


def pmull(a, b, etype: ElementType):
    """Packed multiply, keep the low ``etype.bits`` bits of each product.

    32-bit products may overflow ``int64``, but two's-complement wraparound
    preserves the low bits exactly, which is all ``wrap`` keeps.
    """
    scalar = not _is_words_array(a, b)
    prod = _lanes(a, etype) * _lanes(b, etype)
    return _pack(_wrap_fast(prod, etype), etype, scalar)


def pmulh(a, b, etype: ElementType, rounding: bool = False):
    """Packed multiply, keep the high ``etype.bits`` bits of each product.

    With ``rounding`` the MMX ``pmulhrw``-style rounding constant is added
    before the shift.
    """
    scalar = not _is_words_array(a, b)
    la = _lanes(a, etype)
    lb = _lanes(b, etype)
    if etype.bits == 32:
        # 32x32 products need the exact high half; escape to object dtype.
        prod = la.astype(object) * lb.astype(object)
    else:
        prod = la * lb
    if rounding:
        prod = prod + (1 << (etype.bits - 1))
    high = prod >> etype.bits
    return _pack(_wrap_fast(high, etype), etype, scalar)


def pmadd(a, b, etype: ElementType = S16):
    """MMX ``pmaddwd``: multiply lanes and add adjacent pairs.

    The results are double-width lanes (e.g. four 16-bit products collapse
    into two 32-bit sums).
    """
    if etype.bits * 2 > 64:
        raise ValueError("pmadd requires element width <= 32 bits")
    wide = ElementType(etype.bits * 2, signed=True)
    scalar = not _is_words_array(a, b)
    prod = _lanes(a, etype) * _lanes(b, etype)
    pairs = prod[..., 0::2] + prod[..., 1::2]
    return _pack(_wrap_fast(pairs, wide), wide, scalar)


def pabsdiff(a, b, etype: ElementType = U8):
    """Packed absolute difference, lane by lane."""
    scalar = not _is_words_array(a, b)
    diff = np.abs(_lanes(a, etype) - _lanes(b, etype))
    return _pack(_narrow(diff, etype, "sat"), etype, scalar)


def psad(a, b, etype: ElementType = U8):
    """MMX ``psadbw``: sum of absolute differences across all lanes.

    The scalar sum is returned in lane 0 of a 32-bit-lane word (upper lanes
    zero), mirroring the SSE definition.
    """
    scalar = not _is_words_array(a, b)
    total = np.abs(_lanes(a, etype) - _lanes(b, etype)).sum(axis=-1)
    out = np.zeros(total.shape + (2,), dtype=np.int64)
    out[..., 0] = total & np.int64(0xFFFFFFFF)
    return _pack(out, ElementType(32, signed=False), scalar)


def pavg(a, b, etype: ElementType = U8):
    """Packed average with round-half-up: ``(a + b + 1) >> 1``."""
    scalar = not _is_words_array(a, b)
    avg = (_lanes(a, etype) + _lanes(b, etype) + 1) >> 1
    return _pack(_narrow(avg, etype, "sat"), etype, scalar)


def pmin(a, b, etype: ElementType):
    scalar = not _is_words_array(a, b)
    return _pack(np.minimum(_lanes(a, etype), _lanes(b, etype)), etype, scalar)


def pmax(a, b, etype: ElementType):
    scalar = not _is_words_array(a, b)
    return _pack(np.maximum(_lanes(a, etype), _lanes(b, etype)), etype, scalar)


def pcmpeq(a, b, etype: ElementType):
    """Packed compare-equal: all-ones mask in lanes where ``a == b``."""
    scalar = not _is_words_array(a, b)
    mask = np.where(_lanes(a, etype) == _lanes(b, etype), etype.mask, 0)
    return _pack(mask, ElementType(etype.bits, signed=False), scalar)


def pcmpgt(a, b, etype: ElementType):
    """Packed compare-greater-than (signed by element type)."""
    scalar = not _is_words_array(a, b)
    mask = np.where(_lanes(a, etype) > _lanes(b, etype), etype.mask, 0)
    return _pack(mask, ElementType(etype.bits, signed=False), scalar)


def pand(a, b):
    if _is_words_array(a, b):
        return a & b
    return (a & b) & WORD_MASK


def pandn(a, b):
    """``(~a) & b`` — the MMX operand order."""
    if _is_words_array(a, b):
        return ~a & b
    return (~a & b) & WORD_MASK


def por(a, b):
    if _is_words_array(a, b):
        return a | b
    return (a | b) & WORD_MASK


def pxor(a, b):
    if _is_words_array(a, b):
        return a ^ b
    return (a ^ b) & WORD_MASK


def psll(a, shift: int, etype: ElementType):
    """Packed shift left logical by an immediate count."""
    scalar = not _is_words_array(a)
    la = _lanes(a, ElementType(etype.bits, signed=False))
    if shift >= etype.bits:
        shifted = np.zeros_like(la)
    else:
        # Shift in uint64 so a 32-bit lane shifted near the top of the word
        # cannot trip signed-overflow behaviour; wrap() keeps the low bits.
        shifted = la.astype(np.uint64) << np.uint64(shift)
    return _pack(_wrap_fast(shifted, etype), etype, scalar)


def psrl(a, shift: int, etype: ElementType):
    """Packed shift right logical (zero fill)."""
    scalar = not _is_words_array(a)
    unsigned = ElementType(etype.bits, signed=False)
    la = _lanes(a, unsigned) >> min(int(shift), 63)
    return _pack(la, unsigned, scalar)


def psra(a, shift: int, etype: ElementType):
    """Packed shift right arithmetic (sign fill)."""
    scalar = not _is_words_array(a)
    la = _lanes(a, ElementType(etype.bits, signed=True)) >> min(int(shift), 63)
    return _pack(_wrap_fast(la, etype), etype, scalar)


def _aligned_lanes(a, b, etype: ElementType):
    """Lane planes of both operands, broadcast to a common row shape so a
    scalar word can meet a word array (concatenation needs equal ndim)."""
    la = _lanes(a, etype)
    lb = _lanes(b, etype)
    if la.ndim < lb.ndim:
        la = np.broadcast_to(la, lb.shape[:-1] + la.shape[-1:])
    elif lb.ndim < la.ndim:
        lb = np.broadcast_to(lb, la.shape[:-1] + lb.shape[-1:])
    return la, lb


def packss(a, b, src_etype: ElementType):
    """Pack two words of wide lanes into one word of half-width signed lanes
    with signed saturation (MMX ``packsswb`` / ``packssdw``)."""
    narrow = ElementType(src_etype.bits // 2, signed=True)
    scalar = not _is_words_array(a, b)
    lanes = np.concatenate(_aligned_lanes(a, b, src_etype), axis=-1)
    return _pack(np.minimum(np.maximum(lanes, narrow.min), narrow.max),
                 narrow, scalar)


def packus(a, b, src_etype: ElementType):
    """Pack with unsigned saturation (MMX ``packuswb``)."""
    narrow = ElementType(src_etype.bits // 2, signed=False)
    scalar = not _is_words_array(a, b)
    lanes = np.concatenate(_aligned_lanes(a, b, src_etype), axis=-1)
    return _pack(np.minimum(np.maximum(lanes, narrow.min), narrow.max),
                 narrow, scalar)


def punpckl(a, b, etype: ElementType):
    """Interleave the low halves of two packed words (MMX ``punpckl*``)."""
    unsigned = ElementType(etype.bits, signed=False)
    scalar = not _is_words_array(a, b)
    la = _lanes(a, unsigned)
    lb = _lanes(b, unsigned)
    half = etype.lanes // 2
    out = np.empty(np.broadcast_shapes(la.shape, lb.shape), dtype=np.int64)
    out[..., 0::2] = la[..., :half]
    out[..., 1::2] = lb[..., :half]
    return _pack(out, unsigned, scalar)


def punpckh(a, b, etype: ElementType):
    """Interleave the high halves of two packed words (MMX ``punpckh*``)."""
    unsigned = ElementType(etype.bits, signed=False)
    scalar = not _is_words_array(a, b)
    la = _lanes(a, unsigned)
    lb = _lanes(b, unsigned)
    half = etype.lanes // 2
    out = np.empty(np.broadcast_shapes(la.shape, lb.shape), dtype=np.int64)
    out[..., 0::2] = la[..., half:]
    out[..., 1::2] = lb[..., half:]
    return _pack(out, unsigned, scalar)


def pshift_scale(a, shift: int, etype: ElementType, saturating: str = "wrap"):
    """Arithmetic right shift with round-half-up, per lane (DSP descale)."""
    scalar = not _is_words_array(a)
    la = _lanes(a, ElementType(etype.bits, signed=True))
    if shift > 0:
        if shift >= 64:
            # Rounding constant exceeds int64: arbitrary-precision fallback.
            la = (la.astype(object) + (1 << (shift - 1))) >> shift
        else:
            la = (la + np.int64(1 << (shift - 1))) >> np.int64(shift)
    return _pack(_narrow(la, etype, saturating), etype, scalar)


def splat(value: int, etype: ElementType) -> int:
    """Broadcast a scalar into every lane of a packed word."""
    lane = int(value) & etype.mask
    word = 0
    for i in range(etype.lanes):
        word |= lane << (i * etype.bits)
    return word


def pzero() -> int:
    """The all-zero packed word."""
    return 0
