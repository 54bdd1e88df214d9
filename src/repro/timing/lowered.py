"""Trace lowering: compile a ``Trace`` into flat arrays for fast simulation.

The object-level simulation loop (:meth:`~repro.timing.core.OutOfOrderCore.run`)
pays, for every dynamic instruction, a series of costs that are *invariant
across the many machine configurations each trace is simulated under*:
attribute lookups on :class:`~repro.trace.instruction.DynInstr`, enum hashing
to find the functional-unit pool and issue queue, and — worst of all —
hashing frozen-dataclass :class:`~repro.trace.instruction.RegRef` keys into
the register scoreboard dict.

This module performs that work **once per trace**.  :func:`lower_trace`
compiles a trace into a :class:`LoweredTrace` of parallel flat arrays:

* a *shape table* of the distinct ``(opclass, vly, non_pipelined)`` triples
  (per configuration these resolve to occupancy, completion latency,
  functional-unit pool and issue queue — the resolution happens once per
  shape inside :meth:`~repro.timing.core.OutOfOrderCore.run_lowered`, not
  once per instruction);
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

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.isa.opclasses import OpClass, RegFile

if TYPE_CHECKING:
    import numpy as np

__all__ = ["REG_POOL_ORDER", "LoweredTrace", "lower_trace"]

#: Fixed order in which :meth:`OutOfOrderCore.run_lowered` materialises the
#: rename slot pools; a lowered destination's ``pool`` field is an index into
#: this tuple.
REG_POOL_ORDER: Tuple[RegFile, ...] = (RegFile.INT, RegFile.MEDIA,
                                       RegFile.MATRIX, RegFile.ACC,
                                       RegFile.VL)

_POOL_INDEX = {file: i for i, file in enumerate(REG_POOL_ORDER)}


class LoweredTrace:
    """The flat-array compilation of one :class:`~repro.trace.container.Trace`.

    All per-instruction sequences are parallel (index ``i`` describes dynamic
    instruction ``i``); everything configuration-dependent is deferred to the
    shape table, which :meth:`~repro.timing.core.OutOfOrderCore.run_lowered`
    resolves once per simulation.
    """

    __slots__ = ("name", "isa", "num_instructions", "total_ops", "num_regs",
                 "shapes", "shape_ids", "srcs", "dsts", "opcodes",
                 "opcode_ids", "_columns", "_same_pool_multi_dst")

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
        # Lazily-built ndarray columns / trace classifications (below).
        self._columns = None
        self._same_pool_multi_dst = None

    # ------------------------------------------------------------------
    # ndarray columns
    # ------------------------------------------------------------------
    # The same data as flat NumPy columns, with the ragged srcs/dsts rows
    # in CSR form (``*_flat`` values + an ``indptr`` of row boundaries:
    # row ``i`` is ``flat[indptr[i]:indptr[i + 1]]``).  The vector batch
    # backend (repro.timing.vector) consumes these; the list rows remain
    # the canonical form for the per-config lowered interpreter, so the
    # columns are built lazily on first use (and never on the
    # lowered/object-only simulation paths, which therefore import no
    # NumPy).

    def _build_columns(self) -> dict:
        cols = self._columns
        if cols is not None:
            return cols
        import numpy as np

        n = self.num_instructions
        srcs, dsts = self.srcs, self.dsts
        src_indptr = np.zeros(n + 1, dtype=np.int32)
        dst_indptr = np.zeros(n + 1, dtype=np.int32)
        if n:
            np.cumsum(np.fromiter((len(row) for row in srcs),
                                  dtype=np.int32, count=n),
                      out=src_indptr[1:])
            np.cumsum(np.fromiter((len(row) for row in dsts),
                                  dtype=np.int32, count=n),
                      out=dst_indptr[1:])
        num_dsts = int(dst_indptr[-1])
        cols = self._columns = {
            "shape_id_col": np.asarray(self.shape_ids, dtype=np.int32),
            "opcode_id_col": np.asarray(self.opcode_ids, dtype=np.int32),
            "src_indptr": src_indptr,
            "src_flat": np.fromiter(
                (r for row in srcs for r in row), dtype=np.int32,
                count=int(src_indptr[-1])),
            "dst_indptr": dst_indptr,
            "dst_reg_flat": np.fromiter(
                (reg for row in dsts for reg, _pool, _acc in row),
                dtype=np.int32, count=num_dsts),
            "dst_pool_flat": np.fromiter(
                (pool for row in dsts for _reg, pool, _acc in row),
                dtype=np.int32, count=num_dsts),
            "dst_acc_flat": np.fromiter(
                (acc for row in dsts for _reg, _pool, acc in row),
                dtype=np.bool_, count=num_dsts),
        }
        return cols

    @property
    def shape_id_col(self) -> np.ndarray:
        """Per instruction: :attr:`shape_ids` as an int32 column."""
        return self._build_columns()["shape_id_col"]

    @property
    def opcode_id_col(self) -> np.ndarray:
        """Per instruction: :attr:`opcode_ids` as an int32 column."""
        return self._build_columns()["opcode_id_col"]

    @property
    def src_flat(self) -> np.ndarray:
        """CSR values of :attr:`srcs` (see :attr:`src_indptr`)."""
        return self._build_columns()["src_flat"]

    @property
    def src_indptr(self) -> np.ndarray:
        """CSR row boundaries of :attr:`srcs`."""
        return self._build_columns()["src_indptr"]

    @property
    def dst_reg_flat(self) -> np.ndarray:
        """CSR destination register ids (see :attr:`dst_indptr`)."""
        return self._build_columns()["dst_reg_flat"]

    @property
    def dst_pool_flat(self) -> np.ndarray:
        """CSR destination rename-pool indices (see :attr:`dst_indptr`)."""
        return self._build_columns()["dst_pool_flat"]

    @property
    def dst_acc_flat(self) -> np.ndarray:
        """CSR destination accumulator flags (see :attr:`dst_indptr`)."""
        return self._build_columns()["dst_acc_flat"]

    @property
    def dst_indptr(self) -> np.ndarray:
        """CSR row boundaries of :attr:`dsts`."""
        return self._build_columns()["dst_indptr"]

    @property
    def has_same_pool_multi_dst(self) -> bool:
        """Whether any instruction writes two destinations in one rename
        pool.

        No kernel builder emits such instructions, but hand-built traces
        can.  The vector batch backend's sliding-window rename pools
        assume at most one same-pool destination per instruction (a full
        pool pops exactly once per push), so it declines these traces and
        the per-config interpreter runs instead.  Memoised: one pass over
        the destination rows on first use.
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
