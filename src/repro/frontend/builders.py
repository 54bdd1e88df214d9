"""Convenience re-exports and factory helpers for the ISA builders.

All builders share :class:`~repro.frontend.scalar_builder.ScalarBuilder`'s
block-emission primitives: ``unroll(count, body, bulk)`` records one loop
iteration, block-appends the remaining record rows via
``Trace.replicate_tail`` (legal because the emitted record — opcode,
opclass, register indices, shape — is iteration-invariant for these
loops), and delegates the middle iterations' architectural effects to a
vectorised ``bulk`` that finishes with a ``replay`` (semantics-only,
emission-suppressed) of the final iteration.  Emitted streams are
byte-identical to the per-iteration loops, so block emission does NOT bump
:data:`repro.versions.BUILDER_VERSION`.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend.machine import FunctionalMachine
from repro.frontend.scalar_builder import ScalarBuilder
from repro.frontend.simd_builder import MMXBuilder, MDMXBuilder
from repro.frontend.mom_builder import MOMBuilder
from repro.trace.container import Trace

__all__ = [
    "ScalarBuilder",
    "MMXBuilder",
    "MDMXBuilder",
    "MOMBuilder",
    "BUILDER_CLASSES",
    "make_builder",
]

#: Map from ISA name to builder class, in the order the paper reports them.
BUILDER_CLASSES = {
    "scalar": ScalarBuilder,
    "mmx": MMXBuilder,
    "mdmx": MDMXBuilder,
    "mom": MOMBuilder,
}


def make_builder(isa: str, machine: Optional[FunctionalMachine] = None,
                 name: str = "", columns: bool = True) -> ScalarBuilder:
    """Create a builder (and, if needed, a fresh machine) for ``isa``.

    Parameters
    ----------
    isa:
        One of ``"scalar"``, ``"mmx"``, ``"mdmx"``, ``"mom"``.
    machine:
        Optional pre-populated functional machine; a new one is created when
        omitted.
    name:
        Trace name (usually the kernel name).
    columns:
        Emit into the column recorder (the default, zero-object fast path)
        or the object-mode :class:`~repro.trace.container.Trace` (the
        reference path the benchmarks compare against).  The emitted
        instruction stream is identical either way.
    """
    try:
        cls = BUILDER_CLASSES[isa]
    except KeyError as exc:
        raise ValueError(
            f"unknown ISA {isa!r}; expected one of {sorted(BUILDER_CLASSES)}"
        ) from exc
    if machine is None:
        machine = FunctionalMachine()
    return cls(machine, Trace(name=name, isa=isa, columns=columns), name=name)
