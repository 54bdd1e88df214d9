"""``idct``: 8x8 inverse discrete cosine transform (MPEG/JPEG decode).

The 2-D inverse transform is computed as two 8x8 fixed-point matrix products
``Y = A @ X @ A.T`` with the Q14 basis matrix from
:mod:`repro.kernels.constants`, descaling (round-half-up, shift 14) after
each pass.  Each ISA variant implements the same arithmetic:

* scalar — even/odd symmetric column passes (the compiler-level structure of
  the reference decoders), with the inter-pass transposes folded into the
  load/store indexing;
* MMX — ``pmaddwd`` dot products on interleaved row pairs, with explicit
  in-register 8x8 transposes built from pack/unpack (the data-promotion /
  transpose overhead the paper attributes to MMX-style ISAs);
* MDMX — packed-accumulator multiply-accumulate per output row, which
  removes the data promotion but keeps the explicit transposes;
* MOM — a matrix-register formulation: one broadcast-constant matrix load
  plus two dimension-Y multiply-accumulate reductions per output row, and
  the paper's single-instruction matrix transpose between passes.

All variants produce bit-identical results, verified against the NumPy
golden reference.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import S16, S32, U16, U32, pack_planes, unpack_planes
from repro.common.fixedpoint import round_half_up
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.kernels.constants import IDCT_SHIFT, idct_basis_q14
from repro.workloads.generators import WorkloadSpec, random_dct_block

__all__ = ["IdctKernel"]

_N = 8
_BLOCK_BYTES = _N * _N * 2


class IdctKernel(Kernel):
    """8x8 fixed-point inverse DCT."""

    name = "idct"
    description = "8x8 inverse discrete cosine transform (Q14 fixed point)"
    benchmark = "mpeg2decode"
    default_scale = DEFAULT_SCALES[name]

    def __init__(self) -> None:
        self._basis = idct_basis_q14(_N)

    # ------------------------------------------------------------------

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        blocks = max(1, spec.scale)
        coeffs = np.stack([random_dct_block(rng, _N, _N) for _ in range(blocks)])
        return {"coeffs": coeffs, "blocks": blocks}

    def reference(self, workload) -> np.ndarray:
        a = self._basis
        out = []
        for block in workload["coeffs"]:
            p = round_half_up(a @ block.astype(np.int64), IDCT_SHIFT)
            q = round_half_up(a @ p.T, IDCT_SHIFT)
            out.append(q.T)
        return np.stack(out).astype(np.int64)

    # ------------------------------------------------------------------
    # shared memory setup
    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> Dict[str, int]:
        a = self._basis
        addrs = {
            "in": b.machine.alloc_array(workload["coeffs"], S16),
            "out": b.machine.alloc_zeros(workload["blocks"] * _N * _N, S16),
            # Basis matrix, row-major (scalar variant).
            "basis": b.machine.alloc_array(a, S16),
        }
        # pmaddwd constant table (MMX): for row i and column pair kp the word
        # holds (A[i][2kp], A[i][2kp+1]) twice.
        pairs = np.empty((_N, _N // 2, 4), dtype=np.int64)
        for i in range(_N):
            for kp in range(_N // 2):
                pairs[i, kp] = [a[i, 2 * kp], a[i, 2 * kp + 1]] * 2
        addrs["pairs"] = b.machine.alloc_array(pairs, S16)
        # Splat constant table (MDMX and MOM): word (i, k) holds A[i][k] in
        # all four lanes; for MOM, the 8 words of row block i are contiguous
        # so a single stride-8 matrix load fetches the whole broadcast matrix.
        splat = np.empty((_N, _N, 4), dtype=np.int64)
        for i in range(_N):
            for k in range(_N):
                splat[i, k] = [a[i, k]] * 4
        addrs["splat"] = b.machine.alloc_array(splat, S16)
        # Intermediate buffers shared by all blocks (MMX/MDMX).
        addrs["tmp1"] = b.machine.alloc_zeros(_N * _N, S16)
        addrs["tmp2"] = b.machine.alloc_zeros(_N * _N, S16)
        return addrs

    def _read_output(self, b, out_addr: int, blocks: int) -> np.ndarray:
        flat = b.machine.read_array(out_addr, blocks * _N * _N, S16)
        return flat.reshape(blocks, _N, _N)

    def _bulk_blocks(self, b, addrs, lo: int, hi: int) -> None:
        """Write the output blocks of iterations ``lo .. hi-2`` directly.

        The per-block bulk shared by every ISA variant's outer unroll: the
        transform of each middle block is computed with the same NumPy
        fixed-point math as :meth:`reference` and deposited where the
        per-iteration store sequence would put it.  (The blocks' writes to
        the shared ``tmp1``/``tmp2`` scratch are dead — each block
        overwrites them — so only the last, replayed iteration recreates
        them.)
        """
        a = self._basis
        for blk in range(lo, hi - 1):
            block = b.machine.read_array(
                addrs["in"] + blk * _BLOCK_BYTES, _N * _N, S16).reshape(_N, _N)
            p = round_half_up(a @ block.astype(np.int64), IDCT_SHIFT)
            q = round_half_up(a @ p.T, IDCT_SHIFT)
            b.machine.memory.write_array(
                addrs["out"] + blk * _BLOCK_BYTES, q.T, S16)

    def _bulk_pass_rows(self, b, in_addr: int, out_addr: int,
                        lo: int, hi: int) -> None:
        """Write output rows ``lo .. hi-2`` of one ``descale(A @ in)`` pass.

        Shared by the MMX and MDMX per-output-row unrolls: row ``i`` of
        the pass result goes to ``out_addr + i*16`` exactly as the
        per-iteration store pair would put it.
        """
        flat = b.machine.read_array(in_addr, _N * _N, S16).reshape(_N, _N)
        p = round_half_up(self._basis @ flat.astype(np.int64), IDCT_SHIFT)
        b.machine.memory.write_array(out_addr + lo * 16, p[lo:hi - 1], S16)

    # ------------------------------------------------------------------
    # scalar
    # ------------------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        addrs = self._setup(b, workload)
        blocks = workload["blocks"]

        def body(blk: int) -> None:
            in_addr = addrs["in"] + blk * _BLOCK_BYTES
            out_addr = addrs["out"] + blk * _BLOCK_BYTES
            # Pass 1: P = A @ X, stored row-major in tmp1.
            self._scalar_pass(b, addrs, in_addr, addrs["tmp1"],
                              transpose_in=False, transpose_out=False)
            # Pass 2: Q = A @ P.T, stored transposed so the output is Q.T = Y.
            self._scalar_pass(b, addrs, addrs["tmp1"], out_addr,
                              transpose_in=True, transpose_out=True)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_blocks(b, addrs, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, addrs["out"], blocks)

    def _scalar_pass(self, b, addrs, in_addr: int, out_addr: int,
                     transpose_in: bool, transpose_out: bool) -> None:
        """One ``A @ M`` pass using the even/odd cosine symmetry.

        The transposes between passes are folded into the load/store address
        computation, as an optimising compiler does for the reference C code.
        """
        R_IN, R_OUT, R_CONST, R_E, R_O, R_C, R_T, R_S, R_CNT = 1, 2, 3, 4, 5, 6, 7, 8, 9
        col_regs = list(range(16, 16 + _N))
        b.li(R_IN, in_addr)
        b.li(R_OUT, out_addr)
        b.li(R_CONST, addrs["basis"])
        b.li(R_CNT, _N)

        def body(j: int) -> None:
            # Load input column j (or row j of the transposed input).
            for k in range(_N):
                offset = (j * _N + k) * 2 if transpose_in else (k * _N + j) * 2
                b.ldw(col_regs[k], R_IN, offset)
            for i in range(_N // 2):
                # Even part.
                b.li(R_E, 0)
                for k in range(0, _N, 2):
                    b.ldw(R_C, R_CONST, (i * _N + k) * 2)
                    b.mul(R_T, col_regs[k], R_C)
                    b.add(R_E, R_E, R_T)
                # Odd part.
                b.li(R_O, 0)
                for k in range(1, _N, 2):
                    b.ldw(R_C, R_CONST, (i * _N + k) * 2)
                    b.mul(R_T, col_regs[k], R_C)
                    b.add(R_O, R_O, R_T)
                for out_row, sign in ((i, +1), (_N - 1 - i, -1)):
                    if sign > 0:
                        b.add(R_S, R_E, R_O)
                    else:
                        b.sub(R_S, R_E, R_O)
                    b.addi(R_S, R_S, 1 << (IDCT_SHIFT - 1))
                    b.srai(R_S, R_S, IDCT_SHIFT)
                    offset = (j * _N + out_row) * 2 if transpose_out else (out_row * _N + j) * 2
                    b.stw(R_S, R_OUT, offset)
            b.subi(R_CNT, R_CNT, 1)
            b.branch(R_CNT, "bgt")

        def bulk(lo: int, hi: int) -> None:
            # The whole pass-output matrix via the reference fixed-point
            # math; column j=0 and the replayed last column are rewritten
            # with identical values, so one full-matrix write suffices.
            flat = b.machine.read_array(in_addr, _N * _N, S16).reshape(_N, _N)
            m = flat.T if transpose_in else flat
            p = round_half_up(self._basis @ m.astype(np.int64), IDCT_SHIFT)
            outmat = p.T if transpose_out else p
            b.machine.memory.write_array(out_addr, outmat, S16)
            b.regs.write(R_CNT, _N - (hi - 1))
            b.replay(body, hi - 1)

        b.unroll(_N, body, bulk)

    # ------------------------------------------------------------------
    # MMX
    # ------------------------------------------------------------------

    def build_mmx(self, b, workload) -> np.ndarray:
        addrs = self._setup(b, workload)
        blocks = workload["blocks"]

        def body(blk: int) -> None:
            in_addr = addrs["in"] + blk * _BLOCK_BYTES
            out_addr = addrs["out"] + blk * _BLOCK_BYTES
            self._mmx_pass(b, addrs, in_addr, addrs["tmp1"])
            self._mmx_transpose(b, addrs["tmp1"], addrs["tmp2"])
            self._mmx_pass(b, addrs, addrs["tmp2"], addrs["tmp1"])
            self._mmx_transpose(b, addrs["tmp1"], out_addr)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_blocks(b, addrs, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, addrs["out"], blocks)

    def _mmx_pass(self, b, addrs, in_addr: int, out_addr: int) -> None:
        """``out = descale(A @ in)`` using pmaddwd on interleaved row pairs."""
        R_IN, R_OUT, R_CONST = 1, 2, 3
        b.li(R_IN, in_addr)
        b.li(R_OUT, out_addr)
        b.li(R_CONST, addrs["pairs"])
        # Load the 16 input words (row r, half h) into mm[2r + h].
        for r in range(_N):
            b.movq_ld(2 * r, R_IN, r * 16, S16)
            b.movq_ld(2 * r + 1, R_IN, r * 16 + 8, S16)
        # Interleave row pairs: XP[kp][g] covers column pair g of rows
        # (2kp, 2kp+1); stored in mm16..mm31.
        for kp in range(_N // 2):
            a_lo, a_hi = 4 * kp, 4 * kp + 1
            b_lo, b_hi = 4 * kp + 2, 4 * kp + 3
            base = 16 + 4 * kp
            b.punpckl(base + 0, a_lo, b_lo, U16)
            b.punpckh(base + 1, a_lo, b_lo, U16)
            b.punpckl(base + 2, a_hi, b_hi, U16)
            b.punpckh(base + 3, a_hi, b_hi, U16)
        def body(i: int) -> None:
            for g in range(4):
                b.pzero(g)
            for kp in range(_N // 2):
                b.movq_ld(5, R_CONST, (i * 4 + kp) * 8, S16)
                for g in range(4):
                    b.pmadd(4, 16 + 4 * kp + g, 5, S16)
                    b.padd(g, g, 4, S32)
            for g in range(4):
                b.pshift_scale(g, g, IDCT_SHIFT, S32)
            b.packss(6, 0, 1, S32)
            b.packss(7, 2, 3, S32)
            b.movq_st(6, R_OUT, i * 16, S16)
            b.movq_st(7, R_OUT, i * 16 + 8, S16)

        b.unroll(_N, body,
                 lambda lo, hi: (self._bulk_pass_rows(b, in_addr, out_addr,
                                                      lo, hi),
                                 b.replay(body, hi - 1)))

    def _mmx_transpose(self, b, in_addr: int, out_addr: int) -> None:
        """8x8 16-bit transpose through registers using pack/unpack."""
        R_IN, R_OUT = 1, 2
        b.li(R_IN, in_addr)
        b.li(R_OUT, out_addr)
        for r in range(_N):
            b.movq_ld(2 * r, R_IN, r * 16, S16)
            b.movq_ld(2 * r + 1, R_IN, r * 16 + 8, S16)
        for rb in range(2):
            for cb in range(2):
                rows = [2 * (4 * rb + t) + cb for t in range(4)]
                b.punpckl(16, rows[0], rows[1], U16)
                b.punpckh(17, rows[0], rows[1], U16)
                b.punpckl(18, rows[2], rows[3], U16)
                b.punpckh(19, rows[2], rows[3], U16)
                b.punpckl(20, 16, 18, U32)
                b.punpckh(21, 16, 18, U32)
                b.punpckl(22, 17, 19, U32)
                b.punpckh(23, 17, 19, U32)
                for t, reg in enumerate((20, 21, 22, 23)):
                    b.movq_st(reg, R_OUT, (4 * cb + t) * 16 + rb * 8, S16)

    # ------------------------------------------------------------------
    # MDMX
    # ------------------------------------------------------------------

    def build_mdmx(self, b, workload) -> np.ndarray:
        addrs = self._setup(b, workload)
        blocks = workload["blocks"]

        def body(blk: int) -> None:
            in_addr = addrs["in"] + blk * _BLOCK_BYTES
            out_addr = addrs["out"] + blk * _BLOCK_BYTES
            self._mdmx_pass(b, addrs, in_addr, addrs["tmp1"])
            self._mmx_transpose(b, addrs["tmp1"], addrs["tmp2"])
            self._mdmx_pass(b, addrs, addrs["tmp2"], addrs["tmp1"])
            self._mmx_transpose(b, addrs["tmp1"], out_addr)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_blocks(b, addrs, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, addrs["out"], blocks)

    def _mdmx_pass(self, b, addrs, in_addr: int, out_addr: int) -> None:
        """``out = descale(A @ in)`` using packed accumulators."""
        R_IN, R_OUT, R_CONST = 1, 2, 3
        ACC_LO, ACC_HI = 0, 1
        b.li(R_IN, in_addr)
        b.li(R_OUT, out_addr)
        b.li(R_CONST, addrs["splat"])
        for r in range(_N):
            b.movq_ld(2 * r, R_IN, r * 16, S16)
            b.movq_ld(2 * r + 1, R_IN, r * 16 + 8, S16)
        def body(i: int) -> None:
            b.acc_clear(ACC_LO, S16)
            b.acc_clear(ACC_HI, S16)
            for k in range(_N):
                b.movq_ld(16, R_CONST, (i * _N + k) * 8, S16)
                b.acc_madd(ACC_LO, 2 * k, 16, S16)
                b.acc_madd(ACC_HI, 2 * k + 1, 16, S16)
            b.acc_read(17, ACC_LO, S16, shift=IDCT_SHIFT)
            b.acc_read(18, ACC_HI, S16, shift=IDCT_SHIFT)
            b.movq_st(17, R_OUT, i * 16, S16)
            b.movq_st(18, R_OUT, i * 16 + 8, S16)

        b.unroll(_N, body,
                 lambda lo, hi: (self._bulk_pass_rows(b, in_addr, out_addr,
                                                      lo, hi),
                                 b.replay(body, hi - 1)))

    # ------------------------------------------------------------------
    # MOM
    # ------------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        addrs = self._setup(b, workload)
        blocks = workload["blocks"]
        R_IN, R_IN_HI, R_OUT, R_OUT_HI = 1, 2, 3, 4
        R_ROWSTRIDE, R_CONSTSTRIDE, R_CONST = 5, 6, 7
        ACC_LO, ACC_HI = 0, 1
        b.li(R_ROWSTRIDE, 16)
        b.li(R_CONSTSTRIDE, 8)
        b.setvl(_N)

        def body(blk: int) -> None:
            in_addr = addrs["in"] + blk * _BLOCK_BYTES
            out_addr = addrs["out"] + blk * _BLOCK_BYTES
            b.li(R_IN, in_addr)
            b.addi(R_IN_HI, R_IN, 8)
            b.mom_ld(0, R_IN, R_ROWSTRIDE, S16)       # X columns 0-3
            b.mom_ld(1, R_IN_HI, R_ROWSTRIDE, S16)    # X columns 4-7
            # Pass 1: rows of P = descale(A @ X) deposited into mr2/mr3.
            self._mom_pass(b, addrs, src_lo=0, src_hi=1, dst_lo=2, dst_hi=3,
                           r_const=R_CONST, r_stride=R_CONSTSTRIDE,
                           acc_lo=ACC_LO, acc_hi=ACC_HI)
            b.mom_transpose_pair(4, 5, 2, 3, S16)
            # Pass 2: rows of Q = descale(A @ P.T) into mr6/mr7.
            self._mom_pass(b, addrs, src_lo=4, src_hi=5, dst_lo=6, dst_hi=7,
                           r_const=R_CONST, r_stride=R_CONSTSTRIDE,
                           acc_lo=ACC_LO, acc_hi=ACC_HI)
            b.mom_transpose_pair(8, 9, 6, 7, S16)     # Y = Q.T
            b.li(R_OUT, out_addr)
            b.addi(R_OUT_HI, R_OUT, 8)
            b.mom_st(8, R_OUT, R_ROWSTRIDE, S16)
            b.mom_st(9, R_OUT_HI, R_ROWSTRIDE, S16)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_blocks(b, addrs, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, addrs["out"], blocks)

    def _mom_pass(self, b, addrs, src_lo: int, src_hi: int, dst_lo: int,
                  dst_hi: int, r_const: int, r_stride: int,
                  acc_lo: int, acc_hi: int) -> None:
        """One ``descale(A @ M)`` pass with matrix multiply-accumulate.

        For each output row the broadcast-constant matrix (row k =
        ``splat(A[i][k])``) is fetched with one strided matrix load and two
        dimension-Y reductions produce the row's eight results.
        """
        def body(i: int) -> None:
            b.li(r_const, addrs["splat"] + i * _N * 8)
            b.mom_ld(10, r_const, r_stride, S16)
            b.mom_acc_clear(acc_lo, S16)
            b.mom_acc_clear(acc_hi, S16)
            b.mom_macc_madd(acc_lo, src_lo, 10, S16)
            b.mom_macc_madd(acc_hi, src_hi, 10, S16)
            b.mom_acc_read(dst_lo, acc_lo, S16, shift=IDCT_SHIFT, row=i)
            b.mom_acc_read(dst_hi, acc_hi, S16, shift=IDCT_SHIFT, row=i)

        def bulk(lo: int, hi: int) -> None:
            # Rows lo..hi-2 of the destination matrix registers hold the
            # descaled pass results; the source matrix lives in registers,
            # so the input comes from the register file, not memory.
            mr = b.mr
            x = np.concatenate([
                unpack_planes(np.asarray(mr.read(src_lo)[:_N],
                                         dtype=np.uint64), S16),
                unpack_planes(np.asarray(mr.read(src_hi)[:_N],
                                         dtype=np.uint64), S16),
            ], axis=1)
            p = round_half_up(self._basis @ x, IDCT_SHIFT)
            lo_words = pack_planes(p[:, :4], S16)
            hi_words = pack_planes(p[:, 4:], S16)
            for i in range(lo, hi - 1):
                mr.write_row(dst_lo, i, int(lo_words[i]))
                mr.write_row(dst_hi, i, int(hi_words[i]))
            b.replay(body, hi - 1)

        b.unroll(_N, body, bulk)
