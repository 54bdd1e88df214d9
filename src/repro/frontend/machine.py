"""Functional machine state: memory plus all architectural register files."""

from __future__ import annotations

import numpy as np

from repro.common.datatypes import ElementType
from repro.isa.registers import (
    AccumulatorFile,
    MatrixRegisterFile,
    MultimediaRegisterFile,
    ScalarRegisterFile,
    VectorControl,
    MAX_MATRIX_ROWS,
)

__all__ = ["Memory", "FunctionalMachine"]


def _lane_dtype(etype: ElementType) -> np.dtype:
    """Little-endian NumPy dtype matching one packed lane of ``etype``."""
    return np.dtype(f"<{'i' if etype.signed else 'u'}{etype.bits // 8}")


class Memory:
    """Byte-addressable little-endian memory with a bump allocator.

    The size defaults to 4 MiB, comfortably larger than any kernel working
    set in this reproduction.  Addresses are plain Python ints.

    Storage is one ``bytearray``; scalar accesses (the per-instruction
    loads and stores of the functional builders) slice it directly, while
    the array helpers below go through a zero-copy NumPy ``uint8`` view of
    the same buffer — bulk workload setup and result extraction are single
    vectorised ``view``/``astype`` operations, not per-element Python
    loops.
    """

    #: Initial backing-store capacity.  ``size`` bounds the address space;
    #: the actual allocation starts here and doubles on first touch of a
    #: higher address, so constructing a machine does not pay for zeroing
    #: 4 MiB it will never use (kernel working sets are a few KiB).
    _INITIAL_CAPACITY = 1 << 16

    def __init__(self, size: int = 4 << 20) -> None:
        self.size = size
        self._data = bytearray(min(size, self._INITIAL_CAPACITY))
        #: NumPy view sharing the bytearray's buffer (writes through either
        #: are visible to both; the bytearray is replaced wholesale — never
        #: resized in place — when the store grows, and the view with it).
        self._view = np.frombuffer(self._data, dtype=np.uint8)
        self._brk = 64  # keep address 0 unused to catch null-pointer bugs

    # -- allocation -------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` of memory and return its base address."""
        addr = (self._brk + align - 1) // align * align
        new_brk = addr + nbytes
        if new_brk > self.size:
            raise MemoryError(
                f"functional memory exhausted ({new_brk} > {self.size} bytes)"
            )
        self._brk = new_brk
        return addr

    # -- raw access -------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        end = addr + nbytes
        if addr < 0 or end > self.size:
            raise IndexError(f"memory access out of range: [{addr}, {end})")
        if end > len(self._data):
            self._grow(end)

    def _grow(self, needed: int) -> None:
        """Double the backing store until it covers ``needed`` bytes.

        The final capacity depends only on the highest address touched
        (doubling from a fixed start), not on the access order, so two
        machines running the same kernel end up with byte-equal stores.
        """
        capacity = len(self._data)
        while capacity < needed:
            capacity *= 2
        capacity = min(capacity, self.size)
        data = bytearray(capacity)
        data[: len(self._data)] = self._data
        self._data = data
        self._view = np.frombuffer(self._data, dtype=np.uint8)

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        return bytes(self._data[addr : addr + nbytes])

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self._data[addr : addr + len(data)] = data

    # -- typed access -----------------------------------------------------

    def read_uint(self, addr: int, nbytes: int) -> int:
        return int.from_bytes(self.read_bytes(addr, nbytes), "little")

    def read_sint(self, addr: int, nbytes: int) -> int:
        return int.from_bytes(self.read_bytes(addr, nbytes), "little", signed=True)

    def write_uint(self, addr: int, value: int, nbytes: int) -> None:
        mask = (1 << (8 * nbytes)) - 1
        self.write_bytes(addr, (int(value) & mask).to_bytes(nbytes, "little"))

    # -- NumPy array helpers (workload setup / result extraction) ---------

    def write_array(self, addr: int, array: np.ndarray, etype: ElementType) -> None:
        """Write a NumPy array of lane values at ``addr`` in row-major order.

        Each lane value is truncated to the element width (two's
        complement, exactly ``int(value) & etype.mask``) and stored
        little-endian.  Integer-dtype inputs take one vectorised
        mask/astype/byte-view pass; ``object``-dtype arrays (arbitrary
        Python ints) fall back to the per-element loop.
        """
        flat = np.asarray(array).reshape(-1)
        nbytes = etype.bits // 8
        mask = etype.mask
        self._check(addr, flat.size * nbytes)
        if flat.dtype == object:
            buf = bytearray(flat.size * nbytes)
            for i, value in enumerate(flat):
                buf[i * nbytes : (i + 1) * nbytes] = (
                    int(value) & mask).to_bytes(nbytes, "little")
            self._data[addr : addr + len(buf)] = buf
            return
        lanes = (flat.astype(np.int64, copy=False) & np.int64(mask)).astype(
            _lane_dtype(etype))
        self._view[addr : addr + lanes.nbytes] = lanes.view(np.uint8)

    def read_array(self, addr: int, count: int, etype: ElementType) -> np.ndarray:
        """Read ``count`` elements of ``etype`` starting at ``addr``.

        One vectorised pass: the byte range is reinterpreted as the
        little-endian lane dtype (sign extension comes with the signed
        view) and widened to ``int64`` — no per-element Python loop.
        """
        nbytes = etype.bits // 8
        self._check(addr, count * nbytes)
        lanes = np.frombuffer(self._data, dtype=_lane_dtype(etype),
                              count=count, offset=addr)
        return lanes.astype(np.int64)

    def read_words_strided(self, addr: int, step: int, count: int) -> list[int]:
        """Read ``count`` little-endian 64-bit words, ``step`` bytes apart.

        The vectorised form of the MOM strided matrix load: one gather over
        the byte view instead of a Python loop of :meth:`read_uint` calls.
        """
        if count <= 0:
            return []
        self._check(addr, 8)
        self._check(addr + step * (count - 1), 8)
        if step == 8:
            rows = self._view[addr : addr + 8 * count]
        else:
            idx = (addr + step * np.arange(count))[:, None] + np.arange(8)
            rows = self._view[idx]
        return [int(w) for w in rows.reshape(count, 8).view("<u8").reshape(-1)]

    def write_words_strided(self, addr: int, step: int,
                            words: "list[int]") -> None:
        """Write 64-bit words at ``addr``, ``step`` bytes apart (strided store)."""
        count = len(words)
        if count <= 0:
            return
        self._check(addr, 8)
        self._check(addr + step * (count - 1), 8)
        rows = np.asarray(words, dtype="<u8").view(np.uint8).reshape(count, 8)
        if step == 8:
            self._view[addr : addr + 8 * count] = rows.reshape(-1)
        else:
            idx = (addr + step * np.arange(count))[:, None] + np.arange(8)
            self._view[idx] = rows

    def alloc_array(self, array: np.ndarray, etype: ElementType, align: int = 64) -> int:
        """Allocate space for ``array`` and write it; returns the address."""
        flat = np.asarray(array).reshape(-1)
        addr = self.alloc(flat.size * (etype.bits // 8), align)
        self.write_array(addr, flat, etype)
        return addr

    def alloc_zeros(self, count: int, etype: ElementType, align: int = 64) -> int:
        """Allocate a zero-filled array of ``count`` elements of ``etype``."""
        return self.alloc(count * (etype.bits // 8), align)


class FunctionalMachine:
    """All architectural state shared by the four ISA models.

    The register-file sizes follow the paper's "enhanced" ISA models
    (section 4.1): 32 multimedia registers (MMX/MDMX), 4 MDMX accumulators,
    16 MOM matrix registers, 2 MOM accumulators and one vector-length
    register.
    """

    def __init__(self, mem_size: int = 4 << 20) -> None:
        self.memory = Memory(mem_size)
        self.int_regs = ScalarRegisterFile(32)
        self.media_regs = MultimediaRegisterFile(32)
        self.mdmx_accs = AccumulatorFile(num_accs=4, lanes=8)
        self.matrix_regs = MatrixRegisterFile(num_regs=16, rows=MAX_MATRIX_ROWS)
        self.mom_accs = AccumulatorFile(num_accs=2, lanes=8)
        self.vector_control = VectorControl(MAX_MATRIX_ROWS)

    # Convenience passthroughs -------------------------------------------

    def alloc_array(self, array: np.ndarray, etype: ElementType, align: int = 64) -> int:
        return self.memory.alloc_array(array, etype, align)

    def alloc_zeros(self, count: int, etype: ElementType, align: int = 64) -> int:
        return self.memory.alloc_zeros(count, etype, align)

    def read_array(self, addr: int, count: int, etype: ElementType) -> np.ndarray:
        return self.memory.read_array(addr, count, etype)
