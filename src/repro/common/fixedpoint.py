"""Fixed-point rounding for the idct kernel.

The MediaBench kernels the paper studies use 16-bit fixed-point constants and
"multiply, add rounding constant, shift right" sequences.  The idct kernel's
scalar, MMX, MDMX and MOM variants and its NumPy golden reference all descale
through :func:`round_half_up`, so they share identical rounding behaviour and
produce bit-identical results.
"""

from __future__ import annotations

import numpy as np


def round_half_up(values: np.ndarray | int, shift: int) -> np.ndarray | int:
    """Arithmetic shift right by ``shift`` with round-half-up.

    Equivalent to ``(x + (1 << (shift-1))) >> shift`` on non-negative and
    negative integers alike (the usual DSP descaling idiom).
    """
    if shift == 0:
        return values
    bias = 1 << (shift - 1)
    if isinstance(values, (int, np.integer)):
        return (int(values) + bias) >> shift
    arr = np.asarray(values, dtype=np.int64)
    return (arr + bias) >> shift
