"""Trace lowering: compile a ``Trace`` into flat arrays for fast simulation.

The object-level simulation loop (:meth:`~repro.timing.core.OutOfOrderCore.run`)
pays, for every dynamic instruction, a series of costs that are *invariant
across the many machine configurations each trace is simulated under*:
attribute lookups on :class:`~repro.trace.instruction.DynInstr`, enum hashing
to find the functional-unit pool and issue queue, and — worst of all —
hashing frozen-dataclass :class:`~repro.trace.instruction.RegRef` keys into
the register scoreboard dict.

This module performs that work **once per trace**.  :func:`lower_trace`
compiles a trace into a :class:`LoweredTrace` of parallel flat lists:

* a *shape table* of the distinct ``(opclass, vly, non_pipelined)`` triples
  (per configuration :func:`~repro.timing.core.resolve_shape` turns each
  into occupancy, completion latency, functional-unit kind and issue
  queue — once per shape, not once per instruction);
* one small-integer shape id per instruction;
* source operands renumbered to dense integer register ids, so the register
  scoreboard becomes a plain list indexed by ``int`` instead of a dict keyed
  by ``RegRef``;
* destination operands as ``(reg_id, rename_pool_index, is_accumulator)``
  triples — everything the rename and writeback stages need, pre-resolved;
* the per-trace operation total (configuration-independent, so the run loop
  no longer sums it).

:meth:`~repro.trace.container.Trace.lower` memoises the lowered form on the
trace instance, and the sweep engine's batching simulates every
configuration sharing a trace off one ``LoweredTrace`` — lowering cost is
amortised to ~zero per sweep point.  A column-mode trace (built by the
front end or revived from the trace cache) skips this pass altogether: its
columns already are a ``LoweredTrace``
(:meth:`~repro.trace.columns.TraceColumns.adopt_lowered`).

Cycle counts are **bit-identical** to the object loop — the golden snapshot
suite and the equivalence tests in ``tests/timing/test_lowered.py`` pin that.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.isa.opclasses import OpClass, RegFile

__all__ = ["REG_POOL_ORDER", "LoweredTrace", "lower_trace"]

#: Fixed order of the rename slot pools: a lowered destination's ``pool``
#: field is an index into this tuple, and
#: :func:`~repro.timing.core.resource_counts` lists rename head-room in it.
REG_POOL_ORDER: Tuple[RegFile, ...] = (RegFile.INT, RegFile.MEDIA,
                                       RegFile.MATRIX, RegFile.ACC,
                                       RegFile.VL)

_POOL_INDEX = {file: i for i, file in enumerate(REG_POOL_ORDER)}


class LoweredTrace:
    """The flat-array compilation of one :class:`~repro.trace.container.Trace`.

    All per-instruction sequences are parallel lists (index ``i`` describes
    dynamic instruction ``i``); everything configuration-dependent is
    deferred to the shape table, which the fast backends resolve once per
    simulation.
    """

    __slots__ = ("name", "isa", "num_instructions", "total_ops", "num_regs",
                 "shapes", "shape_ids", "srcs", "dsts", "opcodes",
                 "opcode_ids", "_same_pool_multi_dst")

    def __init__(self, name: str, isa: str, num_instructions: int,
                 total_ops: int, num_regs: int,
                 shapes: List[Tuple[OpClass, int, bool]],
                 shape_ids: List[int],
                 srcs: List[Tuple[int, ...]],
                 dsts: List[Tuple[Tuple[int, int, bool], ...]],
                 opcodes: List[str],
                 opcode_ids: List[int]) -> None:
        self.name = name
        self.isa = isa
        self.num_instructions = num_instructions
        self.total_ops = total_ops
        self.num_regs = num_regs
        #: Distinct ``(opclass, vly, non_pipelined)`` triples.
        self.shapes = shapes
        #: Per instruction: index into :attr:`shapes`.
        self.shape_ids = shape_ids
        #: Per instruction: dense source register ids.
        self.srcs = srcs
        #: Per instruction: ``(reg_id, pool_index, is_accumulator)`` per dst.
        self.dsts = dsts
        #: Interned opcode mnemonics (timeline recording only).
        self.opcodes = opcodes
        #: Per instruction: index into :attr:`opcodes`.
        self.opcode_ids = opcode_ids
        # Memoised by has_same_pool_multi_dst.
        self._same_pool_multi_dst = None

    @property
    def has_same_pool_multi_dst(self) -> bool:
        """Whether any instruction writes two destinations in one rename
        pool.

        idct/mom's ``mom_transpose_pair`` writes two matrix registers (2
        rows at scale 1, 4 at scale 2), and hand-built traces can too.
        The vector batch backend's sliding-window rename pools assume at
        most one same-pool destination per instruction (a full pool pops
        exactly once per push), so
        :func:`~repro.timing.dispatch.resolve_execution` routes these
        traces to the per-config interpreter.  Memoised: one pass over the
        destination rows on first use.
        """
        known = self._same_pool_multi_dst
        if known is None:
            known = self._same_pool_multi_dst = any(
                len(row) > 1
                and len({pool for _reg, pool, _acc in row}) < len(row)
                for row in self.dsts)
        return known

    def __len__(self) -> int:
        return self.num_instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LoweredTrace(name={self.name!r}, isa={self.isa!r}, "
                f"n={self.num_instructions}, shapes={len(self.shapes)}, "
                f"regs={self.num_regs})")


def lower_trace(trace) -> LoweredTrace:
    """Compile ``trace`` into a :class:`LoweredTrace`.

    Pure function of the trace: register ids are assigned densely in first-
    use order, shapes and opcodes are interned in first-use order, so
    lowering the same trace twice yields structurally identical results.
    Prefer :meth:`Trace.lower`, which memoises the result on the trace.
    """
    reg_ids: Dict[Any, int] = {}
    shape_table: Dict[Tuple[OpClass, int, bool], int] = {}
    opcode_table: Dict[str, int] = {}
    shapes: List[Tuple[OpClass, int, bool]] = []
    opcodes: List[str] = []
    shape_ids: List[int] = []
    srcs_rows: List[Tuple[int, ...]] = []
    dsts_rows: List[Tuple[Tuple[int, int, bool], ...]] = []
    opcode_ids: List[int] = []
    total_ops = 0
    acc_file = RegFile.ACC

    for instr in trace:
        total_ops += instr.ops
        shape = (instr.opclass, instr.vly, instr.non_pipelined)
        sid = shape_table.get(shape)
        if sid is None:
            sid = shape_table[shape] = len(shapes)
            shapes.append(shape)
        shape_ids.append(sid)

        src_row = []
        for ref in instr.srcs:
            rid = reg_ids.get(ref)
            if rid is None:
                rid = reg_ids[ref] = len(reg_ids)
            src_row.append(rid)
        srcs_rows.append(tuple(src_row))

        dst_row = []
        for ref in instr.dsts:
            rid = reg_ids.get(ref)
            if rid is None:
                rid = reg_ids[ref] = len(reg_ids)
            dst_row.append((rid, _POOL_INDEX[ref.file], ref.file is acc_file))
        dsts_rows.append(tuple(dst_row))

        oid = opcode_table.get(instr.opcode)
        if oid is None:
            oid = opcode_table[instr.opcode] = len(opcodes)
            opcodes.append(instr.opcode)
        opcode_ids.append(oid)

    return LoweredTrace(
        name=trace.name,
        isa=trace.isa,
        num_instructions=len(shape_ids),
        total_ops=total_ops,
        num_regs=len(reg_ids),
        shapes=shapes,
        shape_ids=shape_ids,
        srcs=srcs_rows,
        dsts=dsts_rows,
        opcodes=opcodes,
        opcode_ids=opcode_ids,
    )
