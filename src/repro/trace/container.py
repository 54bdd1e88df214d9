"""Trace container and its compact serialized form.

Besides the in-memory :class:`Trace` used by the builders and the timing
model, this module defines the *payload* format the
:class:`~repro.sweep.tracecache.TraceCache` stores on disk: a plain
JSON-able dict with interned opcode/opclass/register-file tables and one
small integer row per instruction, so a several-thousand-instruction trace
serializes to a few tens of kilobytes and deserializes orders of magnitude
faster than re-running the functional front end.

A trace has two interchangeable storages:

``column mode`` (the builders' default, and every single-ISA payload
:meth:`from_payload` revives)
    Instructions live in a :class:`~repro.trace.columns.TraceColumns`
    recorder — flat id columns in the lowered-array layout, with whole
    records interned into a pool.  :meth:`lower` is a zero-copy adoption,
    :meth:`to_payload` serializes straight from the pool, and
    :class:`~repro.trace.instruction.DynInstr` objects are only
    materialised when someone iterates the trace.

``object mode``
    A plain list of :class:`DynInstr` — what :meth:`append` /
    :meth:`extend` build, what :meth:`from_payload` revives a mixed-ISA
    payload as, and what any column trace degrades to on mutation.  The
    readable reference path.

Both modes produce byte-identical payloads and structurally identical
lowerings; ``tests/trace/test_columns.py`` pins the equivalence on the
full kernel x ISA grid.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.isa.opclasses import OpClass, RegFile
from repro.trace.columns import TraceColumns
from repro.trace.instruction import DynInstr, ref_interner

__all__ = ["Trace", "TRACE_PAYLOAD_FORMAT"]

#: Version of the serialized trace payload layout.  Bump on any change to
#: the row encoding below; readers treat an unknown format as a cache miss.
TRACE_PAYLOAD_FORMAT = 1

# Bit flags packed into each instruction row.
_FLAG_VECTOR = 1
_FLAG_NON_PIPELINED = 2


class Trace:
    """An ordered sequence of dynamic instructions emitted by one kernel run.

    The container is append-only; the timing model iterates it in program
    order (the front end of the simulated core is a perfect trace fetcher).

    ``columns=True`` (the default) lets the builders' :meth:`emit` calls
    record into flat columns with no per-instruction objects; ``False``
    forces the object emission path (used by the front-end speed floors to
    measure the column path's speedup).  Traces built via :meth:`append` /
    :meth:`extend` are object-mode either way.
    """

    def __init__(self, name: str = "", isa: str = "",
                 columns: bool = True) -> None:
        self.name = name
        self.isa = isa
        # Exactly one storage is authoritative: ``_columns`` when set and
        # ``_instrs`` is None or a consistent materialisation; the object
        # list otherwise.  ``_instrs is None`` marks "column mode, not
        # materialised yet".
        self._instrs: Optional[List[DynInstr]] = None if columns else []
        self._columns: Optional[TraceColumns] = None
        # Memoised flat-array compilation (see lower()); invalidated by any
        # mutation so a stale lowering can never be simulated.
        self._lowered = None

    # ------------------------------------------------------------------
    # storage plumbing
    # ------------------------------------------------------------------

    def _materialized(self) -> List[DynInstr]:
        """The instruction objects, building them from columns on demand."""
        if self._instrs is None:
            self._instrs = (self._columns.materialize(self.isa)
                            if self._columns is not None else [])
        return self._instrs

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def emit(self, opcode: str, opclass: OpClass, srcs: tuple, dsts: tuple,
             ops: int = 1, vlx: int = 1, vly: int = 1,
             is_vector: bool = False, non_pipelined: bool = False,
             isa: Optional[str] = None) -> None:
        """Record one instruction from its fields (the builders' hot path).

        A fresh default trace records into columns — no ``DynInstr`` is
        constructed.  A trace that already holds instruction objects
        (``columns=False``, or built via :meth:`append`) constructs and
        appends one, keeping the object path available for comparison and
        for hand-built traces.

        ``isa`` stamps the emitted instruction and defaults to the trace's
        own; columns store one ISA per trace, so an emission under a
        *different* ISA tag (not something any builder does) degrades the
        trace to object mode.
        """
        if isa is None:
            isa = self.isa
        cols = self._columns
        if cols is None and self._instrs is None:
            cols = self._columns = TraceColumns()
        if cols is not None and isa == self.isa:
            cols.emit(opcode, opclass, srcs, dsts, ops, vlx, vly,
                      is_vector, non_pipelined)
            # Any earlier materialisation no longer covers this emission.
            self._instrs = None
        else:
            instrs = self._materialized()
            self._columns = None
            instrs.append(DynInstr(
                opcode=opcode, opclass=opclass, isa=isa,
                srcs=tuple(srcs), dsts=tuple(dsts), ops=ops, vlx=vlx,
                vly=vly, is_vector=is_vector, non_pipelined=non_pipelined))
        self._lowered = None

    def append(self, instr: DynInstr) -> None:
        """Append one instruction object (degrades a column trace to
        object mode; an adopted lowering keeps its pre-mutation content)."""
        instrs = self._materialized()
        instrs.append(instr)
        self._columns = None
        self._lowered = None

    def extend(self, instrs: Iterable[DynInstr]) -> None:
        existing = self._materialized()
        existing.extend(instrs)
        self._columns = None
        self._lowered = None

    def replicate_tail(self, start: int, times: int) -> None:
        """Append ``times`` copies of everything recorded from ``start`` on.

        The block-emission primitive behind the builders'
        :meth:`~repro.frontend.scalar_builder.ScalarBuilder.unroll`: a
        column-mode trace replicates in a few list extensions; an
        object-mode trace re-appends the slice (``DynInstr`` records are
        immutable, so sharing the objects is safe).
        """
        if times <= 0 or start >= len(self):
            return
        if self._columns is not None:
            self._columns.replicate_tail(start, times)
            # Any earlier materialisation no longer covers the new rows.
            self._instrs = None
        else:
            instrs = self._materialized()
            tail = instrs[start:]
            for _ in range(times):
                instrs.extend(tail)
        self._lowered = None

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._instrs is not None:
            return len(self._instrs)
        return len(self._columns) if self._columns is not None else 0

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]

    @property
    def instructions(self) -> List[DynInstr]:
        return self._materialized()

    @property
    def columns(self) -> Optional[TraceColumns]:
        """The live column recorder, or None for object-mode traces."""
        return self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, isa={self.isa!r}, n={len(self)})"

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def lower(self):
        """The trace compiled to flat arrays for the fast timing backend.

        Returns the :class:`~repro.timing.lowered.LoweredTrace` of this
        trace, computing it on first call and memoising it afterwards (the
        sweep engine simulates every machine configuration sharing a trace
        off one lowering).  A column-mode trace *adopts* its columns —
        they are already in the lowered layout, so no per-instruction pass
        runs at all.  Mutating the trace (:meth:`append` / :meth:`extend` /
        :meth:`emit`) invalidates the memo; a previously returned lowering
        is never mutated (column adoption is copy-on-write).
        """
        if self._lowered is None:
            if self._columns is not None:
                self._lowered = self._columns.adopt_lowered(self.name,
                                                            self.isa)
            else:
                # Imported here: the timing package imports this module.
                from repro.timing.lowered import lower_trace

                self._lowered = lower_trace(self)
        return self._lowered

    # ------------------------------------------------------------------
    # compact (de)serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Serialize to a compact JSON-able dict.

        Two levels of sharing keep the payload small and cheap to revive:

        * opcode, opclass, ISA and register-file names are interned into
          per-trace string tables;
        * whole instruction *records* are deduplicated into a ``pool`` —
          kernels are loops, so a trace of thousands of dynamic
          instructions typically has only a few hundred distinct records —
          and ``instrs`` is just the sequence of pool indices.

        Each pool row is ``[opcode_i, opclass_i, isa_i, ops, vlx, vly,
        flags, [file_i, index, ...srcs], [file_i, index, ...dsts]]`` with
        ``flags`` packing ``is_vector`` (bit 0) and ``non_pipelined``
        (bit 1).  :meth:`from_payload` inverts this exactly: the
        round-tripped instructions compare equal to the originals.

        A column-mode trace serializes straight from its record pool (no
        instruction objects are materialised) with byte-identical output.
        """
        if self._columns is not None:
            return self._columns.to_payload(self.name, self.isa)
        opcodes: Dict[str, int] = {}
        opclasses: Dict[str, int] = {}
        isas: Dict[str, int] = {}
        regfiles: Dict[str, int] = {}

        def intern(table: Dict[str, int], value: str) -> int:
            if value not in table:
                table[value] = len(table)
            return table[value]

        def pack_refs(refs) -> tuple:
            packed: List[int] = []
            for ref in refs:
                packed.append(intern(regfiles, ref.file.value))
                packed.append(ref.index)
            return tuple(packed)

        pool: Dict[tuple, int] = {}
        sequence: List[int] = []
        for i in self._materialized():
            flags = (_FLAG_VECTOR if i.is_vector else 0) | (
                _FLAG_NON_PIPELINED if i.non_pipelined else 0)
            row = (
                intern(opcodes, i.opcode),
                intern(opclasses, i.opclass.value),
                intern(isas, i.isa),
                i.ops, i.vlx, i.vly, flags,
                pack_refs(i.srcs), pack_refs(i.dsts),
            )
            index = pool.setdefault(row, len(pool))
            sequence.append(index)
        return {
            "format": TRACE_PAYLOAD_FORMAT,
            "name": self.name,
            "isa": self.isa,
            "opcodes": list(opcodes),
            "opclasses": list(opclasses),
            "isas": list(isas),
            "regfiles": list(regfiles),
            "pool": [[*row[:7], list(row[7]), list(row[8])] for row in pool],
            "instrs": sequence,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Trace":
        """Reconstruct a trace from :meth:`to_payload` output.

        A payload whose records all carry the trace's own ISA (every trace
        a builder emits) revives in column mode
        (:meth:`TraceColumns.from_rows`): no
        :class:`~repro.trace.instruction.DynInstr` is built, :meth:`lower`
        adopts the columns and the statistics weight each distinct record
        by its multiplicity.  A mixed-ISA payload revives in object mode,
        the rule :meth:`emit` applies.

        Raises ``ValueError`` on an unknown payload format and
        ``IndexError`` on an ``instrs`` entry outside the pool, and lets
        ``KeyError``/``IndexError``/``TypeError`` escape on other malformed
        data — cache readers treat all of those as a miss.
        """
        if payload.get("format") != TRACE_PAYLOAD_FORMAT:
            raise ValueError(
                f"unknown trace payload format {payload.get('format')!r}")
        opcodes = payload["opcodes"]
        opclasses = [OpClass(v) for v in payload["opclasses"]]
        isas = payload["isas"]
        refs = [ref_interner(RegFile(v)) for v in payload["regfiles"]]

        def unpack_refs(packed) -> tuple:
            return tuple(refs[packed[j]](packed[j + 1])
                         for j in range(0, len(packed), 2))

        pool = payload["pool"]
        # Column-recorder records (see TraceColumns.emit) and their ISAs.
        rows = [(opcodes[op_i], opclasses[cls_i], unpack_refs(srcs),
                 unpack_refs(dsts), ops, vlx, vly, bool(flags & _FLAG_VECTOR),
                 bool(flags & _FLAG_NON_PIPELINED))
                for op_i, cls_i, _isa_i, ops, vlx, vly, flags, srcs, dsts
                in pool]
        row_isas = [isas[row[2]] for row in pool]
        sequence = payload["instrs"]
        if sequence and min(sequence) < 0:
            raise IndexError("trace payload references a negative pool row")
        trace = cls(name=payload["name"], isa=payload["isa"])
        if all(isa == trace.isa for isa in row_isas):
            trace._columns = TraceColumns.from_rows(rows, sequence)
        else:
            instrs = [DynInstr(row[0], row[1], isa, *row[2:])
                      for row, isa in zip(rows, row_isas)]
            trace._instrs = [instrs[i] for i in sequence]
        return trace
