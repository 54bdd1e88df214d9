"""Matrix (dimension Y) operation semantics for MOM.

A MOM matrix instruction applies a packed (dimension X) operation to the
first ``vl`` rows of its matrix-register operands — i.e. it is a vector of
MMX-like operations.  The MOM builder maps the packed semantics of
:mod:`repro.isa.simdops` across rows itself; this module holds the
operations that only make sense at matrix granularity: the matrix transpose
and the pipelined dimension-Y reductions into packed accumulators.

Each helper processes all ``vl`` rows as one ``(vl, lanes)`` lane plane per
operand — one NumPy call instead of a Python loop per row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.datatypes import (
    ElementType,
    pack_planes,
    unpack_planes,
)
from repro.isa.registers import MAX_MATRIX_ROWS

__all__ = [
    "transpose",
    "transpose_pair",
    "reduce_mul_add",
    "reduce_add",
    "reduce_abs_diff_add",
]


def transpose(rows: Sequence[int], etype: ElementType, vl: int) -> list[int]:
    """Matrix transpose of the ``vl`` x ``etype.lanes`` sub-word matrix.

    The paper describes an 8x8 transpose with 8+C cycles of latency; the
    functional semantics are a plain transpose of the lane matrix.  The
    result has ``etype.lanes`` valid rows (the new dimension-Y length).
    """
    if not 1 <= vl <= MAX_MATRIX_ROWS:
        raise ValueError(f"vector length {vl} out of range")
    lanes = unpack_planes(np.asarray(rows[:vl], dtype=np.uint64), etype)
    count = min(vl, etype.lanes)
    padded = np.zeros((etype.lanes, etype.lanes), dtype=np.int64)
    padded[:, :count] = lanes.T[:, :count]  # shape (etype.lanes, vl)
    words = pack_planes(padded, etype)
    out = [0] * MAX_MATRIX_ROWS
    out[: etype.lanes] = [int(w) for w in words]
    return out


def transpose_pair(
    lo_rows: Sequence[int],
    hi_rows: Sequence[int],
    etype: ElementType,
    vl: int,
) -> tuple[list[int], list[int]]:
    """Transpose a matrix that spans two matrix registers side by side.

    A 16-bit 8x8 matrix occupies two matrix registers (columns 0-3 in the
    "lo" register, columns 4-7 in "hi").  The paper's transpose instruction
    operates on the full 8x8 matrix; this helper implements that semantics
    for a register pair.  The matrix must be square: ``vl == 2 * etype.lanes``.
    """
    width = 2 * etype.lanes
    if vl != width:
        raise ValueError(
            f"transpose_pair requires a square matrix (vl == {width}), got vl={vl}"
        )
    flipped = np.concatenate(
        [unpack_planes(np.asarray(lo_rows[:vl], dtype=np.uint64), etype),
         unpack_planes(np.asarray(hi_rows[:vl], dtype=np.uint64), etype)],
        axis=1,
    ).T  # square: shape (width, vl) == (vl, width)
    lo_words = pack_planes(flipped[:, : etype.lanes], etype)
    hi_words = pack_planes(flipped[:, etype.lanes :], etype)
    lo_out = [0] * MAX_MATRIX_ROWS
    hi_out = [0] * MAX_MATRIX_ROWS
    lo_out[:width] = [int(w) for w in lo_words]
    hi_out[:width] = [int(w) for w in hi_words]
    return lo_out, hi_out


def reduce_mul_add(
    acc: np.ndarray,
    a_rows: Sequence[int],
    b_rows: Sequence[int],
    etype: ElementType,
    vl: int,
) -> np.ndarray:
    """Matrix multiply-accumulate reduction over dimension Y.

    ``acc[lane] += sum_over_rows(a[row][lane] * b[row][lane])`` — a single
    MOM instruction performs the whole dimension-Y reduction, pipelined in
    hardware (section 3.1), so there is no per-row architectural recurrence.
    """
    la = unpack_planes(np.asarray(a_rows[:vl], dtype=np.uint64), etype)
    lb = unpack_planes(np.asarray(b_rows[:vl], dtype=np.uint64), etype)
    if etype.bits == 32:
        # 32-bit products summed over up to 16 rows can overflow int64;
        # take the arbitrary-precision escape hatch.
        sums = (la.astype(object) * lb.astype(object)).sum(axis=0)
    else:
        sums = (la * lb).sum(axis=0)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] + sums
    return out


def reduce_add(
    acc: np.ndarray, a_rows: Sequence[int], etype: ElementType, vl: int
) -> np.ndarray:
    """``acc[lane] += sum_over_rows(a[row][lane])``."""
    sums = unpack_planes(np.asarray(a_rows[:vl], dtype=np.uint64), etype).sum(axis=0)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] + sums
    return out


def reduce_abs_diff_add(
    acc: np.ndarray,
    a_rows: Sequence[int],
    b_rows: Sequence[int],
    etype: ElementType,
    vl: int,
) -> np.ndarray:
    """``acc[lane] += sum_over_rows(|a[row][lane] - b[row][lane]|)``.

    Used by the motion-estimation kernels (sum of absolute differences).
    """
    la = unpack_planes(np.asarray(a_rows[:vl], dtype=np.uint64), etype)
    lb = unpack_planes(np.asarray(b_rows[:vl], dtype=np.uint64), etype)
    sums = np.abs(la - lb).sum(axis=0)
    out = acc.astype(object).copy()
    out[: etype.lanes] = out[: etype.lanes] + sums
    return out
