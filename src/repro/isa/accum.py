"""Packed-accumulator semantics (MDMX section 3.1 of the paper).

A packed accumulator holds one wide lane per sub-word element position and
is updated read-modify-write by multiply-accumulate style instructions.  The
paper highlights two properties that these semantics must preserve:

* precision — the products are accumulated at full width and only rounded,
  shifted and saturated when read out into an ordinary multimedia register;
* the recurrence — every accumulator-operate instruction both reads and
  writes the accumulator, which serialises dependent operations (the reason
  MDMX scales poorly and the motivation for MOM's pipelined dimension-Y
  reductions).

Lane values are kept as unbounded Python ints (``object`` dtype arrays); the
architectural 24-/48-bit lane width only matters at read-out.
"""

from __future__ import annotations

import numpy as np

from repro.common.datatypes import ElementType, pack_word, unpack_word_fast
from repro.common.saturate import saturate

__all__ = [
    "acc_mul_add",
    "acc_mul_sub",
    "acc_add",
    "acc_sub",
    "acc_abs_diff_add",
    "acc_read",
    "acc_read_scalar",
]


def _lanes(word: int, etype: ElementType) -> np.ndarray:
    # int64 lanes are exact here: every per-lane product/difference of
    # 8/16/32-bit lanes fits int64, and accumulation happens in the object
    # arrays below (unbounded Python ints), so nothing can overflow.
    return unpack_word_fast(word, etype)


def acc_mul_add(acc: np.ndarray, a: int, b: int, etype: ElementType) -> np.ndarray:
    """``acc[i] += a[i] * b[i]`` for every lane (MDMX ``mula``-style)."""
    la, lb = _lanes(a, etype), _lanes(b, etype)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] + la * lb
    return out


def acc_mul_sub(acc: np.ndarray, a: int, b: int, etype: ElementType) -> np.ndarray:
    """``acc[i] -= a[i] * b[i]`` for every lane."""
    la, lb = _lanes(a, etype), _lanes(b, etype)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] - la * lb
    return out


def acc_add(acc: np.ndarray, a: int, etype: ElementType) -> np.ndarray:
    """``acc[i] += a[i]`` for every lane (MDMX ``adda``-style)."""
    la = _lanes(a, etype)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] + la
    return out


def acc_sub(acc: np.ndarray, a: int, etype: ElementType) -> np.ndarray:
    """``acc[i] -= a[i]`` for every lane."""
    la = _lanes(a, etype)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] - la
    return out


def acc_abs_diff_add(acc: np.ndarray, a: int, b: int, etype: ElementType) -> np.ndarray:
    """``acc[i] += |a[i] - b[i]|`` (used by the motion-estimation kernels)."""
    la, lb = _lanes(a, etype), _lanes(b, etype)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] + abs(la - lb)
    return out


def acc_read(
    acc: np.ndarray,
    etype: ElementType,
    shift: int = 0,
    rounding: bool = True,
    saturating: bool = True,
) -> int:
    """Read the accumulator out into a packed word.

    The per-lane value is arithmetically shifted right by ``shift`` bits
    (with optional round-half-up) and then saturated (or wrapped) into
    ``etype`` lanes — modelling the MDMX "round, clip and write back"
    read-out instructions.
    """
    lanes = acc.astype(object)[: etype.lanes].copy()
    if shift > 0:
        if rounding:
            lanes = lanes + (1 << (shift - 1))
        lanes = lanes >> shift
    if saturating:
        lanes = saturate(lanes, etype)
    out = np.asarray(lanes, dtype=object)
    return pack_word([int(v) & etype.mask if not saturating else int(v) for v in out], etype)


def acc_read_scalar(acc: np.ndarray, lanes: int, shift: int = 0) -> int:
    """Sum all accumulator lanes into one scalar (final reduction step).

    Kernels such as the GSM long-term-prediction dot products and the motion
    estimation SAD need a single scalar at the end; architecturally this is a
    short sequence of accumulator read-out plus adds, but functionally it is
    just the lane sum (optionally descaled by ``shift``).
    """
    total = int(sum(int(v) for v in acc[:lanes]))
    if shift > 0:
        total = (total + (1 << (shift - 1))) >> shift
    return total
