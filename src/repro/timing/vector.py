"""NumPy batch timing backend: all configurations of one trace in one pass.

The paper's experiments are sweeps of one dynamic trace across many machine
configurations (issue widths x memory latencies x queue/register-file
ablations).  The lowered interpreter (:meth:`OutOfOrderCore.run_lowered`)
already amortises the *lowering* across those configurations, but each one
still pays a full Python interpreter pass over the trace.  This module
amortises the interpreter itself: its array program, which
:func:`~repro.timing.dispatch.simulate_batch` runs for ``backend="vector"``
(and for ``auto`` on large batches), walks the instruction rows **once**
and advances the scoreboards of all ``N`` configurations simultaneously as
ndarray columns —

* register-ready times as one ``(N, num_regs)`` array;
* rename/commit histories as ``(pad + n, N)`` arrays, the per-config
  fetch/ROB/commit-width bounds one fancy gather each (the pad rows encode
  "no constraint yet", so there is no per-config branch);
* functional-unit and issue-bandwidth busy counts as one
  ``(kinds + 1, N, cycles)`` array, the issue search a vectorised window
  scan shared by every configuration;
* issue queues as one ``(N, max K)`` matrix per queue holding each
  config's ``K`` largest issue times so far: a queue's constrain
  candidates never decrease, so every occupant the scalar pool drops is
  dead for good, and the exact bound is the running ``K``-th largest push
  — one row minimum (see :func:`_issue_queue`);
* rename pools as sliding windows over their commit-push history — slot
  releases at commit time are monotone, so the exact
  :class:`~repro.timing.resources.SlotPool` bound for the ``j``-th push is
  the value of push ``j - capacity``, one gather per destination;
* the per-config resources and ``(occupancy, latency, functional unit,
  issue queue)`` shape resolution tables built up front through the
  *same* :func:`~repro.timing.core.resource_counts` /
  :func:`~repro.timing.core.resolve_shape` the lowered interpreter uses.

Cycle counts, stall breakdowns and timelines are **bit-identical** to
:meth:`~repro.timing.core.OutOfOrderCore.run_lowered` (and therefore to the
object loop and the goldens — ``MODEL_VERSION`` is untouched); the
equivalence suite in ``tests/timing/test_vector.py`` pins it.

Cost model and the adaptive cut-over
------------------------------------

A NumPy operation on small arrays costs a roughly constant ~0.3-1 µs of
dispatch overhead regardless of the batch width, and the array program
spends ~30-40 operations per instruction row *for the whole batch*, while
the per-config interpreter spends ~1-1.6 µs per row *per config*.  The
array program therefore loses on small batches and wins on large ones: on
the reference trace (``motion1``/scalar, a structural ablation grid, 2-CPU
host, Python 3.11) the measured cut-over is 24-32 configurations, and the
array program is ~1.5x faster per config at 64 configurations, ~3.5x at
256 and 4-4.5x at 768, asymptotically bounded by the per-row array work.
The rule that picks between the two (``VECTOR_MIN_BATCH`` and the cell
budget) and the per-config loop live in :mod:`repro.timing.dispatch`,
which loads this module only when the array program runs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.timing.config import MachineConfig
from repro.timing.core import resolve_shape, resource_counts
from repro.timing.dispatch import VECTOR_MIN_BATCH
from repro.timing.lowered import LoweredTrace
from repro.timing.results import SimResult

__all__ = ["VECTOR_MIN_BATCH", "effective_min_batch"]


def effective_min_batch() -> int:
    """The ``auto`` cut-over: always :data:`VECTOR_MIN_BATCH`.  Kept as a
    function because ``perfbench/run.py`` checks routing against it."""
    return VECTOR_MIN_BATCH


_HUGE = 1 << 60


def _issue_queue(caps: np.ndarray, dtype: np.dtype) -> Optional[tuple]:
    """Vectorised :class:`~repro.timing.resources.SlotPool` for one issue
    queue across every configuration: ``None`` when no configuration bounds
    the queue, else ``(slots, slots.ravel(), row bases, pin)``.

    A queue's constrain candidates never decrease (each is at least the
    previous instruction's rename time, which is at least the previous
    bound), so every occupant the scalar pool drains or pops is at or below
    every later candidate and dead for good.  The pool's live set is then
    exactly the pushes above the candidate, never more than the capacity
    ``K`` of them, so its bound is ``max(candidate, K-th largest issue time
    pushed so far)``.

    ``slots`` is an ``(N, max K)`` matrix holding each configuration's
    ``K`` largest pushes; columns beyond a configuration's ``K`` hold the
    dtype maximum, so a row minimum is its ``K``-th largest (0 until ``K``
    pushes arrived, which binds no candidate).  A capacity-0 (unbounded)
    configuration gets one slot that ``pin`` clamps back to 0 on every
    push.
    """
    if not caps.any():
        return None
    num_configs = len(caps)
    width = int(caps.max())
    slots = np.full((num_configs, width), np.iinfo(dtype).max, dtype=dtype)
    slots[np.arange(width)[None, :] < np.maximum(caps, 1)[:, None]] = 0
    pin = None if caps.all() else np.where(caps > 0, np.iinfo(np.int64).max, 0)
    return slots, slots.ravel(), np.arange(num_configs) * width, pin


#: Issue-search scan widths, growing per iteration so bandwidth-saturated
#: configurations (a 1-wide core issues one instruction per cycle, so an
#: instruction whose operands became ready far in the past scans a long
#: fully-booked region) converge in a handful of gathers.
_OCC1_WIDTHS = (8, 64, 256, 1024)
_START_WIDTHS = (8, 32, 128)


def _run_vector(lowered: LoweredTrace, configs: List[MachineConfig],
                record_timeline: bool) -> List[SimResult]:
    """The array program itself (see the module docstring for the layout)."""
    num_configs = len(configs)
    if num_configs == 0:
        return []
    n = lowered.num_instructions

    nidx = np.arange(num_configs)
    nidx_col = nidx[:, None]

    def col(field: str) -> np.ndarray:
        return np.fromiter((getattr(c, field) for c in configs),
                           dtype=np.int64, count=num_configs)

    fetch_width = col("fetch_width")
    rob_size = col("rob_size")
    commit_width = col("commit_width")

    # Structural resources per config, one row per resource:
    # unit_counts[kind], queue_caps[queue], rename_caps[pool].
    unit_counts, queue_caps, rename_caps = (
        np.array(table, dtype=np.int64).T
        for table in zip(*map(resource_counts, configs)))

    # The functional-unit kinds plus one extra plane for issue bandwidth,
    # stacked so the issue search gathers unit and bandwidth occupancy in
    # one operation.  Busy counts never exceed the unit count of their
    # pool, so the planes use the narrowest dtype the batch's largest pool
    # fits (int8 keeps the growth copies and the gathered windows small).
    issue_width = col("issue_width")
    plane_limit = max(int(unit_counts.max()), int(issue_width.max()))
    if plane_limit < 120:
        plane_dtype = np.int8
    elif plane_limit < 32000:
        plane_dtype = np.int16
    else:
        plane_dtype = np.int32
    bw_col = issue_width.astype(plane_dtype)[:, None]

    # --- per-(shape, config) resolution --------------------------------
    shape_recs = []
    for shape in lowered.shapes:
        per_config = [resolve_shape(c, *shape) for c in configs]
        occ = np.array([r[0] for r in per_config], dtype=np.int64)
        lat = np.array([r[1] for r in per_config], dtype=np.int64)
        kind, queue, acc_fwd = per_config[0][2:]
        cnt_col = unit_counts[kind].astype(plane_dtype)[:, None]
        max_occ = int(occ.max())
        rec = {
            "occ": occ,
            "lat": lat,
            "kind": kind,
            "queue": queue,
            "acc_fwd": acc_fwd,
            "max_occ": max_occ,
            "occ1": max_occ == 1,
            "cnt_col": cnt_col,
            # Unit count and issue width stacked to match the (2, N, W)
            # windows the search gathers: one comparison covers both.
            "cnt2": np.stack([cnt_col, bw_col]),
            "sel2": np.array([[kind], [4]]),
            "epoch": -1,
        }
        if max_occ > 1:
            rec["off_occ"] = np.arange(max_occ)
            rec["occ_mask"] = (np.arange(max_occ)[None, :]
                               < occ[:, None]).astype(plane_dtype)
            # Per scan width: window offsets, and gather indices into the
            # zero-prefixed cumulative conflict counts (window start s is
            # feasible iff the counts at s and s + occ coincide).
            rec["levels"] = [
                (starts, np.arange(starts)[None, :] + occ[:, None])
                for starts in _START_WIDTHS
            ]
        shape_recs.append(rec)

    # --- histories ------------------------------------------------------
    # Rename and commit times interleave in one array (rename at row
    # ``2 * i``, commit at ``2 * i + 1``) so the fetch-bandwidth, ROB and
    # commit-width bounds of one instruction are a single flat gather.
    # One pad row block encodes "instruction i - width does not exist":
    # rename pad -1 (bound (-1) + 1 = 0), commit pad 0 — both no-ops
    # against candidates that are always >= 0.
    pad = int(max(fetch_width.max(), rob_size.max(), commit_width.max()))
    hist = np.zeros((2 * (pad + n), num_configs), dtype=np.int64)
    hist[0:2 * pad:2] = -1
    hist_flat = hist.ravel()
    back3 = np.concatenate([2 * (pad - fetch_width),
                            2 * (pad - rob_size) + 1,
                            2 * (pad - commit_width) + 1]).astype(np.int32)
    hist_idx = ((2 * np.arange(n, dtype=np.int32)[:, None] + back3[None, :])
                * np.int32(num_configs)
                + np.tile(nidx, 3)[None, :].astype(np.int32))
    adj3 = np.concatenate([np.ones(num_configs, dtype=np.int64),
                           np.zeros(num_configs, dtype=np.int64),
                           np.ones(num_configs, dtype=np.int64)])

    reg_ready = np.zeros((num_configs, max(1, lowered.num_regs)),
                         dtype=np.int64)

    # Queue slot values are issue cycles; a sound per-row increment bound
    # gives a cycle ceiling that usually lets the slot matrices use int32,
    # halving the bytes every queue's row minimum touches.
    max_lat_all = max((int(r["lat"].max()) for r in shape_recs), default=1)
    max_occ_all = max((r["max_occ"] for r in shape_recs), default=1)
    cycle_ceiling = (n + 1) * (max_lat_all + max_occ_all + 2) + 16
    slot_dtype = (np.dtype(np.int32) if cycle_ceiling < 2 ** 31 - 1
                  else np.dtype(np.int64))
    queues = [_issue_queue(caps, slot_dtype) for caps in queue_caps]

    # Rename pools: push history per pool, pre-padded with `pool pad` rows
    # of -1 so the sliding-window gather needs no emptiness branch; the
    # capacity-0 (unconstrained) offset underflows far below zero and the
    # clamp lands it on a pad row.  The flat gather index of every future
    # push is precomputed in one vectorised shot per pool.
    num_pools = len(rename_caps)
    pool_pushes = [0] * num_pools
    for row in lowered.dsts:
        for _reg, pool, _acc in row:
            pool_pushes[pool] += 1
    pool_pads = [max(1, int(caps.max())) for caps in rename_caps]
    pool_hist = [np.full((pool_pads[p] + pool_pushes[p], num_configs), -1,
                         dtype=np.int64)
                 for p in range(num_pools)]
    pool_flat = [h.ravel() for h in pool_hist]
    pool_idx = [
        (np.maximum(np.arange(pool_pushes[p])[:, None]
                    + (pool_pads[p] - np.where(rename_caps[p] > 0,
                                               rename_caps[p], _HUGE)),
                    0) * num_configs + nidx[None, :]).astype(np.int32)
        for p in range(num_pools)
    ]
    pool_count = [0] * num_pools

    # Busy planes (4 FU kinds + issue bandwidth) over a growable cycle
    # horizon.  The initial capacity assumes a handful of cycles per
    # instruction (amply true of every real trace); a high-latency
    # configuration that outruns it doubles the horizon — the narrow dtype
    # keeps those copies cheap.
    capacity = max(4096, 2 * n + 1024)
    busy = np.zeros((5, num_configs, capacity), dtype=plane_dtype)
    busy_flat = busy.ravel()
    epoch = 0
    windows: dict = {}

    def grow(need: int) -> None:
        nonlocal busy, busy_flat, capacity, epoch
        new_capacity = max(2 * capacity, need + 1024)
        grown = np.zeros((5, num_configs, new_capacity), dtype=plane_dtype)
        grown[:, :, :capacity] = busy
        busy = grown
        busy_flat = busy.ravel()
        capacity = new_capacity
        epoch += 1
        windows.clear()

    def window_view(width: int) -> np.ndarray:
        """Width-``width`` sliding-window view of the flat busy planes.

        The search windows are contiguous runs of one config's cycle row,
        so gathering rows of this view needs only one start index per
        (plane, config) instead of a full per-cycle index matrix.
        """
        view = windows.get(width)
        if view is None:
            view = np.lib.stride_tricks.sliding_window_view(busy_flat,
                                                            width)
            windows[width] = view
        return view

    def plane_bases(rec):
        """Flat-index bases of the shape's FU plane and the bandwidth
        plane, cached per capacity epoch."""
        if rec["epoch"] != epoch:
            kind = rec["kind"]
            rec["base2"] = ((rec["sel2"] * num_configs + nidx)
                            * capacity)
            rec["basek"] = (kind * num_configs + nidx) * capacity
            rec["baseb"] = (4 * num_configs + nidx) * capacity
            rec["epoch"] = epoch
        return rec

    # Stall attribution telescopes: each rename stage only ever *raises*
    # the candidate, and the scalar loop charges each stage the amount it
    # raised it by.  Summing the candidate after the fetch, ROB and queue
    # stages (the final value is the rename history itself) makes every
    # per-stage stall a running-sum difference at the end — one in-place
    # add per stage in the loop, O(N) memory.
    sum_fetch = np.zeros(num_configs, dtype=np.int64)
    sum_rob = np.zeros(num_configs, dtype=np.int64)
    sum_queue = np.zeros(num_configs, dtype=np.int64)

    prev_rename = np.zeros(num_configs, dtype=np.int64)
    prev_commit = np.zeros(num_configs, dtype=np.int64)

    if record_timeline:
        tl = np.empty((5, n, num_configs), dtype=np.int64)

    zero_col = np.zeros((num_configs, 1), dtype=np.int64)
    rows = zip(lowered.shape_ids, lowered.srcs, lowered.dsts)
    np_maximum = np.maximum

    for i, (sid, srcs, dsts) in enumerate(rows):
        rec = shape_recs[sid]

        # ---- rename ------------------------------------------------
        bounds = hist_flat.take(hist_idx[i])
        bounds += adj3
        candidate = np_maximum(prev_rename, bounds[:num_configs])
        sum_fetch += candidate

        candidate = np_maximum(candidate,
                               bounds[num_configs:2 * num_configs])
        sum_rob += candidate

        queue = queues[rec["queue"]]
        if queue is not None:
            slots, slots_flat, slots_base, pin = queue
            slot = slots.argmin(1)
            slot += slots_base
            oldest = slots_flat.take(slot)
            candidate = np_maximum(candidate, oldest)
        sum_queue += candidate

        for _reg, pool, _acc in dsts:
            bound = pool_flat[pool].take(pool_idx[pool][pool_count[pool]])
            candidate = np_maximum(candidate, bound)

        rename_time = candidate
        hist[2 * (pad + i)] = rename_time
        prev_rename = rename_time

        # ---- ready (dataflow) ---------------------------------------
        ready = rename_time + 1
        if len(srcs) == 1:
            np_maximum(ready, reg_ready[:, srcs[0]], out=ready)
        elif srcs:
            np_maximum(ready, reg_ready[:, srcs].max(1), out=ready)

        # ---- issue ---------------------------------------------------
        # Smallest cycle >= ready with a functional unit free for the
        # whole occupancy window and an issue slot free in the start
        # cycle — the same fixed point the scalar search converges to,
        # found by scanning a window of candidate cycles per iteration
        # for all configs at once.
        rec = plane_bases(rec)
        if rec["occ1"]:
            # First probe: one window over every config (nearly always
            # conclusive).  Configurations that miss continue on a shrinking
            # active subset with escalating window widths, so the wide scans
            # a bandwidth-saturated 1-wide core needs never touch the rest
            # of the batch.
            width = _OCC1_WIDTHS[0]
            top = int(ready.max()) + width
            if top >= capacity:
                grow(top)
                rec = plane_bases(rec)
            planes = window_view(width)[rec["base2"] + ready]
            pair = planes < rec["cnt2"]
            ok = pair[0] & pair[1]
            first = ok.argmax(1)
            found = ok[nidx, first]
            issue = ready + first
            if not found.all():
                act = np.flatnonzero(~found)
                t_act = ready[act] + width
                base2_act = rec["base2"][:, act]
                cnt2_act = rec["cnt2"][:, act]
                level = 1
                while True:
                    width = _OCC1_WIDTHS[level]
                    top = int(t_act.max()) + width
                    if top >= capacity:
                        grow(top)
                        rec = plane_bases(rec)
                        base2_act = rec["base2"][:, act]
                    planes = window_view(width)[base2_act + t_act]
                    pair = planes < cnt2_act
                    ok = pair[0] & pair[1]
                    first = ok.argmax(1)
                    found = ok[nidx[:len(act)], first]
                    if found.all():
                        issue[act] = t_act + first
                        break
                    hit = np.flatnonzero(found)
                    if hit.size:
                        issue[act[hit]] = t_act[hit] + first[hit]
                        keep = np.flatnonzero(~found)
                        act = act[keep]
                        t_act = t_act[keep] + width
                        base2_act = base2_act[:, keep]
                        cnt2_act = cnt2_act[:, keep]
                    else:
                        t_act = t_act + width
                    if level < len(_OCC1_WIDTHS) - 1:
                        level += 1
            busy_flat[rec["base2"] + issue] += 1
        else:
            max_occ = rec["max_occ"]
            cnt_col = rec["cnt_col"]
            t = ready
            level = 0
            while True:
                starts, cum_end = rec["levels"][level]
                window = max_occ + starts
                top = int(t.max()) + window
                if top >= capacity:
                    grow(top)
                    rec = plane_bases(rec)
                fu_w = window_view(window)[rec["basek"] + t]
                bw_w = window_view(starts)[rec["baseb"] + t]
                conflict = fu_w >= cnt_col
                prefix = np.concatenate(
                    [zero_col, conflict.cumsum(1)], axis=1)
                run_free = (prefix[nidx_col, cum_end]
                            - prefix[:, :starts]) == 0
                ok = run_free & (bw_w < bw_col)
                first = ok.argmax(1)
                found = ok[nidx, first]
                if found.all():
                    issue = t + first
                    break
                t = t + np.where(found, first, starts)
                if level < len(_START_WIDTHS) - 1:
                    level += 1
            fu_base = rec["basek"] + issue
            busy_flat[fu_base[:, None] + rec["off_occ"]] += rec["occ_mask"]
            busy_flat[rec["baseb"] + issue] += 1
        if queue is not None:
            # issue > rename time >= the queue bound >= oldest, so the
            # newcomer always displaces the K-th largest release: the
            # matrix stays each config's running top K.
            slots_flat[slot] = (issue if pin is None
                                else np.minimum(issue, pin))

        # ---- complete ------------------------------------------------
        complete = issue + rec["lat"]
        if rec["acc_fwd"]:
            # MDMX-style accumulate: the accumulator feedback path lives
            # in the final adder stage (see OutOfOrderCore.run).
            acc_forward = issue + rec["occ"]
            for reg, _pool, is_acc in dsts:
                reg_ready[:, reg] = acc_forward if is_acc else complete
        else:
            for reg, _pool, _acc in dsts:
                reg_ready[:, reg] = complete

        # ---- commit --------------------------------------------------
        commit = complete + 1
        np_maximum(commit, prev_commit, out=commit)
        np_maximum(commit, bounds[2 * num_configs:], out=commit)
        hist[2 * (pad + i) + 1] = commit
        prev_commit = commit

        for _reg, pool, _acc in dsts:
            pool_hist[pool][pool_pads[pool] + pool_count[pool]] = commit
            pool_count[pool] += 1

        if record_timeline:
            tl[0, i] = rename_time
            tl[1, i] = ready
            tl[2, i] = issue
            tl[3, i] = complete
            tl[4, i] = commit

    # --- fan the columns back out into per-config results ---------------
    # Per-stage stalls telescope (see the candidate buffers above):
    # each stage's total is the difference of adjacent candidate column
    # sums, with the rename history supplying the base and final values.
    results = []
    cycles = prev_commit.tolist()
    if n:
        rename_sum = hist[2 * pad::2].sum(0)
        stall_fetch = sum_fetch - (rename_sum - prev_rename)
        stall_rob = sum_rob - sum_fetch
        stall_queue = sum_queue - sum_rob
        stall_rename = rename_sum - sum_queue
    else:
        stall_fetch = stall_rob = np.zeros(num_configs, dtype=np.int64)
        stall_queue = stall_rename = stall_fetch
    stalls = np.stack([stall_rob, stall_queue, stall_rename,
                       stall_fetch]).tolist()
    if record_timeline:
        opcode_names = [lowered.opcodes[oid] for oid in lowered.opcode_ids]
        tl_lists = tl.tolist()
    for c, config in enumerate(configs):
        result = SimResult(
            cycles=cycles[c],
            instructions=n,
            operations=lowered.total_ops,
            kernel=lowered.name,
            isa=lowered.isa,
            config_name=config.name,
            mem_latency=config.mem_latency,
            issue_width=config.issue_width,
            stall_breakdown={
                "rob": stalls[0][c],
                "issue_queue": stalls[1][c],
                "rename_regs": stalls[2][c],
                "fetch_bw": stalls[3][c],
            },
        )
        if record_timeline:
            result.timeline = [
                (opcode_names[i], tl_lists[0][i][c], tl_lists[1][i][c],
                 tl_lists[2][i][c], tl_lists[3][i][c], tl_lists[4][i][c])
                for i in range(n)
            ]
        results.append(result)
    return results
