"""Plain-text report formatting for tables and figures.

The experiment drivers produce nested dictionaries of results; these
formatters render them in the same layout as the paper's tables (IPC, OPI,
R, S, F, VLx, VLy rows per ISA) and figures (speed-up per issue width,
cycles per memory latency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # the figures format plain numbers: no metrics import
    from repro.analysis.metrics import KernelMetrics

__all__ = [
    "format_breakdown_table",
    "format_speedup_table",
    "format_latency_table",
    "format_csv",
]

_ISA_LABELS = {"scalar": "Alpha", "mmx": "MMX", "mdmx": "MDMX", "mom": "MOM"}


def format_breakdown_table(kernel: str, rows: Mapping[str, KernelMetrics]) -> str:
    """Render one of the paper's Tables 1-9 for a kernel.

    ``rows`` maps ISA name to its :class:`KernelMetrics`.
    """
    header = f"{'':8s} {'IPC':>6s} {'OPI':>7s} {'R':>6s} {'S':>7s} {'F':>6s} {'VLx':>6s} {'VLy':>6s}"
    lines = [f"Breakdown for {kernel}", header]
    for isa in ("scalar", "mmx", "mdmx", "mom"):
        if isa not in rows:
            continue
        m = rows[isa]
        lines.append(
            f"{_ISA_LABELS[isa]:8s} {m.ipc:6.2f} {m.opi:7.2f} {m.r:6.2f} "
            f"{m.speedup:7.1f} {m.f:6.2f} {m.vlx:6.2f} {m.vly:6.2f}"
        )
    return "\n".join(lines)


def format_speedup_table(results: Mapping[str, Mapping[str, Mapping[int, float]]],
                         ways: Sequence[int] = (1, 2, 4, 8)) -> str:
    """Render the Figure 4 data: speed-up over scalar per kernel/ISA/width.

    ``results[kernel][isa][way]`` is the speed-up value.
    """
    lines = ["Speed-up over scalar code (Figure 4)"]
    for kernel, per_isa in results.items():
        lines.append(f"\n{kernel}")
        header = "  " + "".join(f"{'way ' + str(w):>10s}" for w in ways)
        lines.append(f"  {'ISA':8s}{header}")
        for isa in ("mmx", "mdmx", "mom"):
            if isa not in per_isa:
                continue
            cells = "".join(f"{per_isa[isa].get(w, float('nan')):10.2f}" for w in ways)
            lines.append(f"  {_ISA_LABELS[isa]:8s}  {cells}")
    return "\n".join(lines)


def format_latency_table(results: Mapping[str, Mapping[str, Mapping[int, int]]],
                         latencies: Sequence[int] = (1, 12, 50)) -> str:
    """Render the Figure 5 data: cycles per kernel/ISA/memory latency."""
    lines = ["Execution cycles vs memory latency, 4-way core (Figure 5)"]
    for kernel, per_isa in results.items():
        lines.append(f"\n{kernel}")
        header = "".join(f"{'lat ' + str(l):>12s}" for l in latencies)
        lines.append(f"  {'ISA':8s}{header}")
        for isa in ("scalar", "mmx", "mdmx", "mom"):
            if isa not in per_isa:
                continue
            cells = "".join(f"{per_isa[isa].get(l, 0):12d}" for l in latencies)
            lines.append(f"  {_ISA_LABELS[isa]:8s}{cells}")
    return "\n".join(lines)


def format_csv(rows: Iterable[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Minimal CSV rendering (no external dependencies)."""
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(str(row.get(col, "")) for col in columns))
    return "\n".join(out)
