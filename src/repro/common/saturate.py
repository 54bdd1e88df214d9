"""Saturating and wrapping arithmetic on lane arrays.

Saturation ("clipping" to the representable range instead of wrapping) is one
of the defining multimedia features of MMX-class ISAs and is used heavily by
the addblock / compensation kernels.  All helpers operate on NumPy arrays of
lane values (``int64`` or ``object`` dtype) and are deliberately written with
explicit clipping rather than relying on dtype overflow behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.common.datatypes import ElementType


def saturate_signed(values: np.ndarray, bits: int) -> np.ndarray:
    """Saturate lane values to the signed ``bits``-wide range."""
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return np.clip(values, lo, hi)


def saturate_unsigned(values: np.ndarray, bits: int) -> np.ndarray:
    """Saturate lane values to the unsigned ``bits``-wide range."""
    hi = (1 << bits) - 1
    return np.clip(values, 0, hi)


def saturate(values: np.ndarray, etype: ElementType) -> np.ndarray:
    """Saturate lane values to the range of ``etype``."""
    if etype.signed:
        return saturate_signed(values, etype.bits)
    return saturate_unsigned(values, etype.bits)


def wrap(values: np.ndarray, etype: ElementType) -> np.ndarray:
    """Wrap lane values modulo ``2**bits`` then reinterpret in ``etype``.

    This models ordinary (non-saturating) packed arithmetic.

    Integer-dtype inputs take a pure ``int64`` fast path (bitwise mask plus
    sign reinterpretation — exact for every 8/16/32-bit element type since
    two's-complement truncation *is* mod-``2**bits``); anything else —
    notably ``object`` arrays of arbitrary-precision Python ints — falls
    back to the original arbitrary-precision path, which stays as the
    escape hatch for lanes that overflow ``int64``.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        masked = arr.astype(np.int64, copy=False) & np.int64(etype.mask)
        if etype.signed:
            sign_bit = np.int64(1 << (etype.bits - 1))
            masked = masked - ((masked & sign_bit) << 1)
        return masked
    arr = np.asarray(values, dtype=object)
    modulo = 1 << etype.bits
    wrapped = np.mod(arr, modulo)
    if etype.signed:
        half = 1 << (etype.bits - 1)
        wrapped = np.where(wrapped >= half, wrapped - modulo, wrapped)
    return wrapped.astype(np.int64)
