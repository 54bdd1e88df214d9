"""Architectural register files for the four ISAs under study.

The paper's enhanced ISA models provide (section 4.1):

* 32 logical 64-bit vector (multimedia) registers for MMX,
* the same plus 4 logical packed accumulators for MDMX,
* 16 logical matrix registers (16 x 64-bit words each), 2 logical packed
  accumulators and one vector-length register for MOM.

These classes hold *architectural* state only; renaming and physical
registers are modelled by the timing model (:mod:`repro.timing`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.datatypes import WORD_MASK, ElementType, unpack_word

#: Maximum MOM vector length along dimension Y (paper section 4.1).
MAX_MATRIX_ROWS = 16


class ScalarRegisterFile:
    """Integer scalar register file (Alpha-like, 32 registers).

    Register 31 is hard-wired to zero, matching the Alpha convention; writes
    to it are ignored.
    """

    def __init__(self, num_regs: int = 32) -> None:
        self.num_regs = num_regs
        self._regs = [0] * num_regs

    def read(self, index: int) -> int:
        self._check(index)
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        self._check(index)
        if index == self.num_regs - 1:
            return
        self._regs[index] = int(value)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_regs:
            raise IndexError(f"scalar register r{index} out of range")

    def snapshot(self) -> list[int]:
        """Copy of the architectural state (for tests)."""
        return list(self._regs)


class MultimediaRegisterFile:
    """64-bit packed multimedia registers (MMX/MDMX style)."""

    def __init__(self, num_regs: int = 32) -> None:
        self.num_regs = num_regs
        self._regs = [0] * num_regs

    def read(self, index: int) -> int:
        self._check(index)
        return self._regs[index]

    def write(self, index: int, word: int) -> None:
        self._check(index)
        self._regs[index] = int(word) & WORD_MASK

    def read_lanes(self, index: int, etype: ElementType) -> np.ndarray:
        return unpack_word(self.read(index), etype)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_regs:
            raise IndexError(f"multimedia register mm{index} out of range")

    def snapshot(self) -> list[int]:
        return list(self._regs)


class AccumulatorFile:
    """Packed accumulators (MDMX-style, also used by MOM).

    Each accumulator holds one wide lane per sub-word element position.  The
    lane values are kept as unbounded Python ints; the architectural 24/48-bit
    width only matters on read-out, where the value is shifted, rounded and
    saturated into an ordinary multimedia register.
    """

    def __init__(self, num_accs: int = 4, lanes: int = 8) -> None:
        self.num_accs = num_accs
        self.max_lanes = lanes
        self._accs: list[np.ndarray] = [
            np.zeros(lanes, dtype=object) for _ in range(num_accs)
        ]

    def read(self, index: int) -> np.ndarray:
        self._check(index)
        return self._accs[index].copy()

    def write(self, index: int, lanes: np.ndarray | Sequence[int]) -> None:
        self._check(index)
        arr = np.asarray(lanes, dtype=object)
        if arr.ndim != 1 or arr.shape[0] > self.max_lanes:
            raise ValueError(
                f"accumulator lane vector must have at most {self.max_lanes} lanes, "
                f"got shape {arr.shape}"
            )
        padded = np.zeros(self.max_lanes, dtype=object)
        padded[: arr.shape[0]] = arr
        self._accs[index] = padded

    def clear(self, index: int) -> None:
        self._check(index)
        self._accs[index] = np.zeros(self.max_lanes, dtype=object)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_accs:
            raise IndexError(f"accumulator acc{index} out of range")


class MatrixRegisterFile:
    """MOM matrix registers: each register holds 16 x 64-bit packed words."""

    def __init__(self, num_regs: int = 16, rows: int = MAX_MATRIX_ROWS) -> None:
        self.num_regs = num_regs
        self.rows = rows
        self._regs: list[list[int]] = [[0] * rows for _ in range(num_regs)]

    def read(self, index: int) -> list[int]:
        self._check(index)
        return list(self._regs[index])

    def read_row(self, index: int, row: int) -> int:
        self._check(index)
        self._check_row(row)
        return self._regs[index][row]

    def write(self, index: int, words: Sequence[int]) -> None:
        self._check(index)
        if len(words) > self.rows:
            raise ValueError(
                f"matrix register holds at most {self.rows} rows, got {len(words)}"
            )
        reg = self._regs[index]
        for row, word in enumerate(words):
            reg[row] = int(word) & WORD_MASK

    def write_row(self, index: int, row: int, word: int) -> None:
        self._check(index)
        self._check_row(row)
        self._regs[index][row] = int(word) & WORD_MASK

    def read_lanes(self, index: int, etype: ElementType, vl: int) -> np.ndarray:
        """Matrix view: the first ``vl`` rows unpacked into lanes."""
        words = self._regs[index][:vl]
        return np.stack([unpack_word(w, etype) for w in words]) if words else np.empty(
            (0, etype.lanes), dtype=np.int64
        )

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_regs:
            raise IndexError(f"matrix register mr{index} out of range")

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"matrix row {row} out of range")


class VectorControl:
    """MOM vector-length control register.

    The vector length limits how many dimension-Y rows a matrix instruction
    touches; it is architecturally capped at :data:`MAX_MATRIX_ROWS`.
    """

    def __init__(self, max_vl: int = MAX_MATRIX_ROWS) -> None:
        self.max_vl = max_vl
        self._vl = max_vl

    @property
    def vl(self) -> int:
        return self._vl

    def set_vl(self, value: int) -> None:
        if not 1 <= value <= self.max_vl:
            raise ValueError(
                f"vector length must be in [1, {self.max_vl}], got {value}"
            )
        self._vl = int(value)
