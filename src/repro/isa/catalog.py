"""Instruction-set catalog.

The paper reports emulation libraries of 67 MMX, 88 MDMX and 121 MOM
instructions.  This module enumerates the instruction-emitting operations
each builder in this reproduction exposes, with their functional-unit class,
so users can inspect the modelled instruction sets programmatically (and the
test suite can keep the catalog and the builders consistent).

The catalog counts *builder operations*; several correspond to whole opcode
families in a real encoding (one ``padd`` entry covers the byte / halfword /
longword and wrapping / saturating variants), so the counts here are smaller
than the paper's opcode counts while covering the same functionality.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, List

from repro.frontend.mom_builder import MOMBuilder
from repro.frontend.scalar_builder import ScalarBuilder
from repro.frontend.simd_builder import MDMXBuilder, MMXBuilder

__all__ = ["CatalogEntry", "builder_operations", "instruction_catalog", "catalog_summary"]

#: Builder methods that are plumbing, not instruction emitters.
_NON_INSTRUCTION_METHODS = {"build", "vl", "unroll", "replay"}


@dataclass(frozen=True)
class CatalogEntry:
    """One instruction-emitting builder operation."""

    name: str
    isa: str
    doc: str


_BUILDERS = {
    "scalar": ScalarBuilder,
    "mmx": MMXBuilder,
    "mdmx": MDMXBuilder,
    "mom": MOMBuilder,
}


def builder_operations(isa: str) -> List[str]:
    """Names of the instruction-emitting operations a builder provides.

    Inherited scalar operations are included for the multimedia builders
    (their kernels use them for address arithmetic and loop control), but
    private helpers and plumbing are excluded.
    """
    cls = _BUILDERS[isa]
    names = []
    for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
        if name.startswith("_") or name in _NON_INSTRUCTION_METHODS:
            continue
        names.append(name)
    return sorted(names)


def instruction_catalog() -> Dict[str, List[CatalogEntry]]:
    """The full catalog: ISA name -> list of catalog entries."""
    catalog: Dict[str, List[CatalogEntry]] = {}
    for isa, cls in _BUILDERS.items():
        entries = []
        for name in builder_operations(isa):
            doc = inspect.getdoc(getattr(cls, name)) or ""
            entries.append(CatalogEntry(name=name, isa=isa,
                                        doc=doc.splitlines()[0] if doc else ""))
        catalog[isa] = entries
    return catalog


def catalog_summary() -> Dict[str, int]:
    """Number of instruction-emitting operations per ISA.

    Mirrors the paper's 67 / 88 / 121 instruction counts at the granularity
    of builder operations (each of which may expand to several opcodes).
    """
    return {isa: len(entries) for isa, entries in instruction_catalog().items()}


def media_operations(isa: str) -> List[str]:
    """Only the multimedia (non-scalar-inherited) operations of an ISA."""
    scalar = set(builder_operations("scalar"))
    return [name for name in builder_operations(isa) if name not in scalar]
