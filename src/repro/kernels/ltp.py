"""GSM long-term-prediction kernels: ``ltppar`` and ``ltpsfilt``.

``ltppar`` models the long-term-predictor parameter search of the GSM 06.10
encoder: a cross-correlation between the current 40-sample sub-window and a
sliding window of past reconstructed samples, followed by a maximum search
over the candidate lags.

``ltpsfilt`` models the long-term synthesis filter of the decoder: each
reconstructed sample is the residual plus the gain-scaled sample one lag in
the past, with 16-bit saturation.  (The gain multiply uses a Q16 fixed-point
scale uniformly across all variants and the golden reference.)
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import S16, S32, pack_word
from repro.common.saturate import clamp_scalar
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.workloads.generators import WorkloadSpec, random_s16_samples

__all__ = ["LtpParametersKernel", "LtpFilteringKernel"]

_WINDOW = 40  # GSM sub-segment length


class LtpParametersKernel(Kernel):
    """Long-term-prediction parameter search (cross-correlation + max)."""

    name = "ltppar"
    description = "GSM LTP parameter search: 40-sample cross-correlations over candidate lags"
    benchmark = "gsmencode"
    default_scale = DEFAULT_SCALES[name]  # scale -> 4*scale candidate lags

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        nlags = max(2, 4 * spec.scale)
        d = random_s16_samples(rng, _WINDOW, -4000, 4000)
        hist = random_s16_samples(rng, _WINDOW + nlags, -4000, 4000)
        return {"d": d, "hist": hist, "nlags": nlags}

    def reference(self, workload) -> np.ndarray:
        d = workload["d"].astype(np.int64)
        hist = workload["hist"].astype(np.int64)
        nlags = workload["nlags"]
        corr = np.array(
            [int(np.dot(d, hist[lag : lag + _WINDOW])) for lag in range(nlags)],
            dtype=np.int64,
        )
        best_lag = 0
        best_val = corr[0]
        for lag in range(1, nlags):
            if corr[lag] > best_val:
                best_val = corr[lag]
                best_lag = lag
        return np.concatenate([corr, [best_val, best_lag]])

    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> tuple[int, int, int]:
        d_addr = b.machine.alloc_array(workload["d"], S16)
        hist_addr = b.machine.alloc_array(workload["hist"], S16)
        out_addr = b.machine.alloc_zeros(workload["nlags"] + 2, S32)
        return d_addr, hist_addr, out_addr

    def _read_output(self, b, out_addr: int, nlags: int) -> np.ndarray:
        return b.machine.read_array(out_addr, nlags + 2, S32)

    def _emit_max_update(self, b, r_val, r_best, r_bestlag, r_lag, r_cond) -> None:
        """best-value / best-lag bookkeeping shared by every variant."""
        b.cmplt(r_cond, r_best, r_val)
        b.cmovlt(r_best, r_cond, r_val)
        b.cmovlt(r_bestlag, r_cond, r_lag)

    def _store_best(self, b, out_addr, nlags, r_best, r_bestlag, r_tmp) -> None:
        b.li(r_tmp, out_addr + nlags * 4)
        b.stl(r_best, r_tmp)
        b.li(r_tmp, out_addr + (nlags + 1) * 4)
        b.stl(r_bestlag, r_tmp)

    def _bulk_lags(self, b, d_addr: int, hist_addr: int, out_addr: int,
                   nlags: int, lo: int, hi: int) -> tuple[int, int]:
        """Write correlations for lags ``lo .. hi-2`` and return the running
        best-value / best-lag state after processing lags ``0 .. hi-2``."""
        d = b.machine.read_array(d_addr, _WINDOW, S16)
        hist = b.machine.read_array(hist_addr, _WINDOW + nlags, S16)
        last = hi - 1
        windows = np.lib.stride_tricks.sliding_window_view(hist, _WINDOW)[:last]
        corr = windows @ d
        b.machine.memory.write_array(out_addr + lo * 4, corr[lo:last], S32)
        # Strict-greater updates keep the first occurrence of the maximum,
        # exactly what np.argmax returns.
        bestlag = int(np.argmax(corr))
        return int(corr[bestlag]), bestlag

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        d_addr, hist_addr, out_addr = self._setup(b, workload)
        nlags = workload["nlags"]
        R_D, R_H, R_ACC, R_A, R_B, R_P = 1, 2, 3, 4, 5, 6
        R_OUT, R_BEST, R_BESTLAG, R_LAG, R_COND = 7, 8, 9, 10, 11
        b.li(R_BEST, -(1 << 40))
        b.li(R_BESTLAG, 0)

        def body(lag: int) -> None:
            b.li(R_LAG, lag)
            b.li(R_D, d_addr)
            b.li(R_H, hist_addr + lag * 2)
            b.li(R_ACC, 0)

            def k_body(k: int) -> None:
                b.ldw(R_A, R_D, k * 2)
                b.ldw(R_B, R_H, k * 2)
                b.mul(R_P, R_A, R_B)
                b.add(R_ACC, R_ACC, R_P)

            def k_bulk(klo: int, khi: int) -> None:
                kl = khi - 1
                d = b.machine.read_array(d_addr, _WINDOW, S16)
                h = b.machine.read_array(hist_addr + lag * 2, _WINDOW, S16)
                b.regs.write(R_ACC, int(np.dot(d[:kl], h[:kl])))
                b.replay(k_body, kl)

            b.unroll(_WINDOW, k_body, k_bulk)
            b.li(R_OUT, out_addr + lag * 4)
            b.stl(R_ACC, R_OUT)
            self._emit_max_update(b, R_ACC, R_BEST, R_BESTLAG, R_LAG, R_COND)
            b.branch(R_LAG, "blt")

        def bulk(lo: int, hi: int) -> None:
            best, bestlag = self._bulk_lags(
                b, d_addr, hist_addr, out_addr, nlags, lo, hi)
            b.regs.write(R_BEST, best)
            b.regs.write(R_BESTLAG, bestlag)
            b.replay(body, hi - 1)

        b.unroll(nlags, body, bulk)
        self._store_best(b, out_addr, nlags, R_BEST, R_BESTLAG, R_OUT)
        return self._read_output(b, out_addr, nlags)

    # -- MMX -------------------------------------------------------------

    def build_mmx(self, b, workload) -> np.ndarray:
        d_addr, hist_addr, out_addr = self._setup(b, workload)
        nlags = workload["nlags"]
        R_D, R_H, R_OUT, R_LO, R_HI = 1, 2, 3, 4, 5
        R_BEST, R_BESTLAG, R_LAG, R_COND = 8, 9, 10, 11
        MM_ACC = 7
        b.li(R_BEST, -(1 << 40))
        b.li(R_BESTLAG, 0)
        b.li(R_D, d_addr)

        def body(lag: int) -> None:
            b.li(R_LAG, lag)
            b.li(R_H, hist_addr + lag * 2)
            b.pzero(MM_ACC)

            def g_body(group: int) -> None:
                off = group * 8
                b.movq_ld(0, R_D, off, S16)
                b.movq_ld(1, R_H, off, S16)
                b.pmadd(2, 0, 1, S16)
                b.padd(MM_ACC, MM_ACC, 2, S32)

            def g_bulk(glo: int, ghi: int) -> None:
                gl = ghi - 1
                d = b.machine.read_array(d_addr, _WINDOW, S16)
                h = b.machine.read_array(hist_addr + lag * 2, _WINDOW, S16)
                # pmadd pairs adjacent products; padd accumulates the two
                # 32-bit lanes across groups.
                pairs = (d[:4 * gl] * h[:4 * gl]).reshape(-1, 2).sum(axis=1)
                word = pack_word(
                    [int(pairs[0::2].sum()), int(pairs[1::2].sum())], S32)
                b.mm.write(MM_ACC, word)
                b.replay(g_body, gl)

            b.unroll(_WINDOW // 4, g_body, g_bulk)
            b.movd_to_int(R_LO, MM_ACC, 0, S32)
            b.movd_to_int(R_HI, MM_ACC, 1, S32)
            b.add(R_LO, R_LO, R_HI)
            b.li(R_OUT, out_addr + lag * 4)
            b.stl(R_LO, R_OUT)
            self._emit_max_update(b, R_LO, R_BEST, R_BESTLAG, R_LAG, R_COND)
            b.branch(R_LAG, "blt")

        def bulk(lo: int, hi: int) -> None:
            best, bestlag = self._bulk_lags(
                b, d_addr, hist_addr, out_addr, nlags, lo, hi)
            b.regs.write(R_BEST, best)
            b.regs.write(R_BESTLAG, bestlag)
            b.replay(body, hi - 1)

        b.unroll(nlags, body, bulk)
        self._store_best(b, out_addr, nlags, R_BEST, R_BESTLAG, R_OUT)
        return self._read_output(b, out_addr, nlags)

    # -- MDMX -------------------------------------------------------------

    def build_mdmx(self, b, workload) -> np.ndarray:
        d_addr, hist_addr, out_addr = self._setup(b, workload)
        nlags = workload["nlags"]
        R_D, R_H, R_OUT, R_VAL = 1, 2, 3, 4
        R_BEST, R_BESTLAG, R_LAG, R_COND = 8, 9, 10, 11
        ACC = 0
        b.li(R_BEST, -(1 << 40))
        b.li(R_BESTLAG, 0)
        b.li(R_D, d_addr)

        def body(lag: int) -> None:
            b.li(R_LAG, lag)
            b.li(R_H, hist_addr + lag * 2)
            b.acc_clear(ACC, S16)

            def g_body(group: int) -> None:
                off = group * 8
                b.movq_ld(0, R_D, off, S16)
                b.movq_ld(1, R_H, off, S16)
                b.acc_madd(ACC, 0, 1, S16)

            def g_bulk(glo: int, ghi: int) -> None:
                gl = ghi - 1
                d = b.machine.read_array(d_addr, _WINDOW, S16)
                h = b.machine.read_array(hist_addr + lag * 2, _WINDOW, S16)
                # accumulator lane i holds the products at positions i mod 4
                lanes = (d[:4 * gl] * h[:4 * gl]).reshape(-1, 4).sum(axis=0)
                b.accs.write(ACC, [int(v) for v in lanes])
                b.replay(g_body, gl)

            b.unroll(_WINDOW // 4, g_body, g_bulk)
            b.acc_read_scalar(R_VAL, ACC, S16)
            b.li(R_OUT, out_addr + lag * 4)
            b.stl(R_VAL, R_OUT)
            self._emit_max_update(b, R_VAL, R_BEST, R_BESTLAG, R_LAG, R_COND)
            b.branch(R_LAG, "blt")

        def bulk(lo: int, hi: int) -> None:
            best, bestlag = self._bulk_lags(
                b, d_addr, hist_addr, out_addr, nlags, lo, hi)
            b.regs.write(R_BEST, best)
            b.regs.write(R_BESTLAG, bestlag)
            b.replay(body, hi - 1)

        b.unroll(nlags, body, bulk)
        self._store_best(b, out_addr, nlags, R_BEST, R_BESTLAG, R_OUT)
        return self._read_output(b, out_addr, nlags)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        d_addr, hist_addr, out_addr = self._setup(b, workload)
        nlags = workload["nlags"]
        R_D, R_H, R_STRIDE, R_OUT, R_VAL = 1, 2, 3, 4, 5
        R_BEST, R_BESTLAG, R_LAG, R_COND = 8, 9, 10, 11
        ACC = 0
        b.li(R_BEST, -(1 << 40))
        b.li(R_BESTLAG, 0)
        b.li(R_STRIDE, 8)
        b.li(R_D, d_addr)
        b.setvl(_WINDOW // 4)
        # the current sub-window is loop invariant: load it once
        b.mom_ld(0, R_D, R_STRIDE, S16)
        b.li(R_H, hist_addr)

        def body(lag: int) -> None:
            b.li(R_LAG, lag)
            b.mom_acc_clear(ACC, S16)
            b.mom_ld(1, R_H, R_STRIDE, S16)
            b.mom_macc_madd(ACC, 0, 1, S16)
            b.mom_acc_read_scalar(R_VAL, ACC, S16)
            b.li(R_OUT, out_addr + lag * 4)
            b.stl(R_VAL, R_OUT)
            self._emit_max_update(b, R_VAL, R_BEST, R_BESTLAG, R_LAG, R_COND)
            b.addi(R_H, R_H, 2)
            b.branch(R_LAG, "blt")

        def bulk(lo: int, hi: int) -> None:
            best, bestlag = self._bulk_lags(
                b, d_addr, hist_addr, out_addr, nlags, lo, hi)
            b.regs.write(R_BEST, best)
            b.regs.write(R_BESTLAG, bestlag)
            b.regs.write(R_H, hist_addr + (hi - 1) * 2)
            b.replay(body, hi - 1)

        b.unroll(nlags, body, bulk)
        self._store_best(b, out_addr, nlags, R_BEST, R_BESTLAG, R_OUT)
        return self._read_output(b, out_addr, nlags)


class LtpFilteringKernel(Kernel):
    """Long-term synthesis filtering (GSM decode)."""

    name = "ltpsfilt"
    description = "GSM long-term synthesis filter: residual + Q16-gain-scaled history, saturated"
    benchmark = "gsmdecode"
    default_scale = DEFAULT_SCALES[name]  # scale -> number of 40-sample sub-frames

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        frames = max(1, spec.scale)
        erp = np.stack([random_s16_samples(rng, _WINDOW, -12000, 12000)
                        for _ in range(frames)])
        hist = np.stack([random_s16_samples(rng, _WINDOW, -12000, 12000)
                         for _ in range(frames)])
        gains = rng.integers(4096, 32768, size=frames).astype(np.int64)
        return {"erp": erp, "hist": hist, "gains": gains, "frames": frames}

    def reference(self, workload) -> np.ndarray:
        erp = workload["erp"].astype(np.int64)
        hist = workload["hist"].astype(np.int64)
        gains = workload["gains"].astype(np.int64)
        scaled = (hist * gains[:, None]) >> 16
        return np.clip(erp + scaled, -32768, 32767).astype(np.int64)

    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> tuple[int, int, int, int]:
        erp_addr = b.machine.alloc_array(workload["erp"], S16)
        hist_addr = b.machine.alloc_array(workload["hist"], S16)
        gains_addr = b.machine.alloc_array(workload["gains"], S16)
        out_addr = b.machine.alloc_zeros(workload["frames"] * _WINDOW, S16)
        return erp_addr, hist_addr, gains_addr, out_addr

    def _read_output(self, b, out_addr: int, frames: int) -> np.ndarray:
        flat = b.machine.read_array(out_addr, frames * _WINDOW, S16)
        return flat.reshape(frames, _WINDOW)

    def _expected(self, b, erp_addr: int, hist_addr: int, gains_addr: int,
                  frame: int) -> np.ndarray:
        """The filtered sub-frame ``frame`` recomputed from machine memory."""
        erp = b.machine.read_array(erp_addr + frame * _WINDOW * 2, _WINDOW, S16)
        hist = b.machine.read_array(hist_addr + frame * _WINDOW * 2, _WINDOW, S16)
        gain = int(b.machine.read_array(gains_addr + frame * 2, 1, S16)[0])
        return np.clip(erp + ((hist * gain) >> 16), -32768, 32767)

    def _bulk_frames(self, b, erp_addr: int, hist_addr: int, gains_addr: int,
                     out_addr: int, lo: int, hi: int) -> None:
        for frame in range(lo, hi - 1):
            b.machine.memory.write_array(
                out_addr + frame * _WINDOW * 2,
                self._expected(b, erp_addr, hist_addr, gains_addr, frame), S16)

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        erp_addr, hist_addr, gains_addr, out_addr = self._setup(b, workload)
        frames = workload["frames"]
        R_E, R_H, R_G, R_OUT, R_GAIN, R_X, R_Y, R_S, R_CNT = 1, 2, 3, 4, 5, 6, 7, 8, 9

        def frame_body(frame: int) -> None:
            b.li(R_E, erp_addr + frame * _WINDOW * 2)
            b.li(R_H, hist_addr + frame * _WINDOW * 2)
            b.li(R_G, gains_addr + frame * 2)
            b.li(R_OUT, out_addr + frame * _WINDOW * 2)
            b.li(R_CNT, _WINDOW)
            b.ldw(R_GAIN, R_G, 0)

            def k_body(k: int) -> None:
                b.ldw(R_X, R_H, k * 2)
                b.mul(R_Y, R_X, R_GAIN)
                b.srai(R_Y, R_Y, 16)
                b.ldw(R_X, R_E, k * 2)
                b.add(R_S, R_X, R_Y)
                b.clamp(R_S, R_S, -32768, 32767)
                b.stw(R_S, R_OUT, k * 2)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def k_bulk(klo: int, khi: int) -> None:
                kl = khi - 1
                vals = self._expected(b, erp_addr, hist_addr, gains_addr, frame)
                b.machine.memory.write_array(
                    out_addr + frame * _WINDOW * 2 + klo * 2,
                    vals[klo:kl], S16)
                b.regs.write(R_CNT, _WINDOW - kl)
                b.replay(k_body, kl)

            b.unroll(_WINDOW, k_body, k_bulk)

        b.unroll(frames, frame_body,
                 lambda lo, hi: (self._bulk_frames(b, erp_addr, hist_addr,
                                                   gains_addr, out_addr, lo, hi),
                                 b.replay(frame_body, hi - 1)))
        return self._read_output(b, out_addr, frames)

    # -- MMX / MDMX --------------------------------------------------------

    def _build_packed(self, b, workload) -> np.ndarray:
        erp_addr, hist_addr, gains_addr, out_addr = self._setup(b, workload)
        frames = workload["frames"]
        R_E, R_H, R_G, R_OUT, R_GAIN, R_CNT = 1, 2, 3, 4, 5, 6
        MM_GAIN = 10
        def frame_body(frame: int) -> None:
            b.li(R_E, erp_addr + frame * _WINDOW * 2)
            b.li(R_H, hist_addr + frame * _WINDOW * 2)
            b.li(R_G, gains_addr + frame * 2)
            b.li(R_OUT, out_addr + frame * _WINDOW * 2)
            b.li(R_CNT, _WINDOW // 4)
            b.ldw(R_GAIN, R_G, 0)
            b.splat(MM_GAIN, R_GAIN, S16)

            def g_body(group: int) -> None:
                off = group * 8
                b.movq_ld(0, R_H, off, S16)
                b.pmulh(1, 0, MM_GAIN, S16)
                b.movq_ld(2, R_E, off, S16)
                b.padd(3, 1, 2, S16, saturating="sat")
                b.movq_st(3, R_OUT, off, S16)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def g_bulk(glo: int, ghi: int) -> None:
                gl = ghi - 1
                vals = self._expected(b, erp_addr, hist_addr, gains_addr, frame)
                b.machine.memory.write_array(
                    out_addr + frame * _WINDOW * 2 + glo * 8,
                    vals[glo * 4:gl * 4], S16)
                b.regs.write(R_CNT, _WINDOW // 4 - gl)
                b.replay(g_body, gl)

            b.unroll(_WINDOW // 4, g_body, g_bulk)

        b.unroll(frames, frame_body,
                 lambda lo, hi: (self._bulk_frames(b, erp_addr, hist_addr,
                                                   gains_addr, out_addr, lo, hi),
                                 b.replay(frame_body, hi - 1)))
        return self._read_output(b, out_addr, frames)

    def build_mmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    def build_mdmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        erp_addr, hist_addr, gains_addr, out_addr = self._setup(b, workload)
        frames = workload["frames"]
        R_E, R_H, R_G, R_OUT, R_GAIN, R_STRIDE = 1, 2, 3, 4, 5, 6
        b.li(R_STRIDE, 8)
        b.setvl(_WINDOW // 4)
        def body(frame: int) -> None:
            b.li(R_E, erp_addr + frame * _WINDOW * 2)
            b.li(R_H, hist_addr + frame * _WINDOW * 2)
            b.li(R_G, gains_addr + frame * 2)
            b.li(R_OUT, out_addr + frame * _WINDOW * 2)
            b.ldw(R_GAIN, R_G, 0)
            b.mom_splat(0, R_GAIN, S16)
            b.mom_ld(1, R_H, R_STRIDE, S16)
            b.mom_pmulh(2, 1, 0, S16)
            b.mom_ld(3, R_E, R_STRIDE, S16)
            b.mom_padd(4, 2, 3, S16, saturating="sat")
            b.mom_st(4, R_OUT, R_STRIDE, S16)

        b.unroll(frames, body,
                 lambda lo, hi: (self._bulk_frames(b, erp_addr, hist_addr,
                                                   gains_addr, out_addr, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, out_addr, frames)
