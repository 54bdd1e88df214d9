#!/usr/bin/env python3
"""Regenerate the golden cycle-count snapshot and the stream fingerprints.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Writes four files:

* ``way4_lat1.json`` — cycle, instruction and operation counts of every
  kernel x ISA on the 4-way / 1-cycle-memory machine.  Only regenerate it
  when a timing-model or kernel-builder change is *supposed* to move the
  numbers — and bump ``repro.versions.MODEL_VERSION`` in the same commit
  so cached sweep results are invalidated too.
* ``streams.json`` — a SHA-256 of every kernel x ISA emitted stream (the
  canonical JSON of ``Trace.to_payload()``) under the live
  ``repro.versions.BUILDER_VERSION``.  A changed stream must come
  with a ``BUILDER_VERSION`` bump, so this script refuses to write changed
  hashes under an unchanged version.
* ``paper_grid.json`` — cycles, instructions and stall breakdown of every
  point Figure 4 (kernel x ISA x issue width) and Figure 5 (kernel x ISA x
  memory latency) print, simulated on the lowered interpreter.  Changed
  numbers must come with a ``repro.versions.MODEL_VERSION`` bump, so
  this script refuses to write them under an unchanged version.
* ``ablations.json`` — cycles and instructions of every point of the three
  ablation sweeps (MOM lanes, reorder-buffer size, workload scale) at the
  parameters the shape checks of ``tests/experiments/test_paper_shapes.py``
  use.  The same ``MODEL_VERSION`` refusal applies.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro import versions  # noqa: E402
from repro.experiments.ablations import (  # noqa: E402
    run_lane_ablation, run_rob_ablation, run_trace_length_sensitivity)
from repro.experiments.figure4 import figure4_sweep  # noqa: E402
from repro.experiments.figure5 import figure5_sweep  # noqa: E402
from repro.experiments.runner import build_kernel_variant, run_kernel  # noqa: E402
from repro.kernels.base import ISA_VARIANTS  # noqa: E402
from repro.kernels.registry import get_kernel, kernel_names  # noqa: E402
from repro.timing.config import MachineConfig  # noqa: E402
from repro.timing.dispatch import simulate_batch  # noqa: E402
from repro.workloads.generators import WorkloadSpec  # noqa: E402

SEED = 1999
MEM_LATENCY = 1
OUT = os.path.join(os.path.dirname(__file__), "way4_lat1.json")
STREAMS_OUT = os.path.join(os.path.dirname(__file__), "streams.json")
GRID_OUT = os.path.join(os.path.dirname(__file__), "paper_grid.json")
ABLATIONS_OUT = os.path.join(os.path.dirname(__file__), "ablations.json")

#: The ablation sweeps of the shape checks, as ``(kernels, values)``: MOM
#: lanes per multimedia unit, reorder-buffer sizes and workload scales,
#: all on the 4-way machine with the default workload seed.
ABLATION_LANES = (("motion1", "idct", "comp"), (1, 2, 4))
ABLATION_ROB_SIZES = (("motion2", "ltpsfilt"), (16, 32, 64, 128))
ABLATION_SCALES = (("comp", "ltppar"), (1, 2, 4))


def stream_fingerprints() -> Dict[str, str]:
    """SHA-256 of each kernel x ISA stream at the kernel's default scale."""
    streams = {}
    for name in kernel_names():
        kernel = get_kernel(name)
        workload = kernel.make_workload(
            WorkloadSpec(scale=kernel.default_scale, seed=SEED))
        for isa in ISA_VARIANTS:
            payload = kernel.run_variant(isa, workload=workload).trace.to_payload()
            canonical = json.dumps(payload, sort_keys=True,
                                   separators=(",", ":"))
            streams[f"{name}/{isa}"] = hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()
    return streams


def changed_streams(pinned: Dict[str, str], streams: Dict[str, str]) -> List[str]:
    """Keys whose entry differs between ``pinned`` and ``streams``."""
    return sorted(name for name in set(pinned) | set(streams)
                  if pinned.get(name) != streams.get(name))


def config_label(config: MachineConfig) -> str:
    """``way4_lat12``: the grid's name for a figure machine."""
    return f"{config.name}_lat{config.mem_latency}"


def paper_grid_layout() -> Tuple[Dict[str, List[str]], Dict[str, List]]:
    """The figures' machines and the traces they run.

    Returns ``(figures, groups)``: ``figures`` maps ``figure4``/``figure5``
    to the labels of the machines each sweeps, and ``groups`` maps every
    ``kernel/isa`` trace to its resolved workload spec followed by the
    distinct machines of both figures (Figure 5's 4-way / 1-cycle point
    is Figure 4's too, so each trace has six).
    """
    figures: Dict[str, List[str]] = {}
    groups: Dict[str, List] = {}
    for figure, sweep in (("figure4", figure4_sweep()),
                          ("figure5", figure5_sweep())):
        figures[figure] = list(dict.fromkeys(config_label(p.config)
                                             for p in sweep))
        for point in sweep:
            group = groups.setdefault(f"{point.kernel}/{point.isa}",
                                      [point.spec])
            if point.config not in group[1:]:
                group.append(point.config)
    return figures, groups


def simulate_paper_grid(backends: Sequence[str] = ("lowered",)
                        ) -> Dict[str, Dict[str, Dict[str, Dict]]]:
    """Every figure point on each backend: ``grid[backend][trace][label]``.

    Each trace is built (and verified) once and simulated on all of its
    machines in one :func:`~repro.timing.dispatch.simulate_batch` call per
    backend.
    """
    _, groups = paper_grid_layout()
    grid: Dict[str, Dict[str, Dict[str, Dict]]] = {b: {} for b in backends}
    for trace_name, (spec, *configs) in groups.items():
        kernel_name, isa = trace_name.split("/")
        trace = build_kernel_variant(kernel_name, isa, spec=spec).trace
        for backend in backends:
            sims = simulate_batch(trace, configs, backend=backend)
            grid[backend][trace_name] = {
                config_label(config): {
                    "cycles": sim.cycles,
                    "instructions": sim.instructions,
                    "stall_breakdown": sim.stall_breakdown,
                }
                for config, sim in zip(configs, sims)
            }
    return grid


def simulate_ablations() -> Dict[str, Dict[str, Dict[str, int]]]:
    """Every ablation point: ``results["<ablation>/<kernel>/<isa>"][label]``.

    The ablations are ``lanes``, ``rob`` and ``trace_length``; the labels
    ``lanes2``, ``rob64`` or ``scale4`` name the swept value.  Each point
    holds its cycles and instructions.
    """
    runs = []  # (ablation, label, kernel, {isa: point result})
    kernels, lanes = ABLATION_LANES
    for kernel in kernels:
        swept = run_lane_ablation(kernel, lanes=lanes, spec=WorkloadSpec())
        runs += [("lanes", f"lanes{n}", kernel, {"mom": result})
                 for n, result in swept.items()]
    kernels, rob_sizes = ABLATION_ROB_SIZES
    for kernel in kernels:
        swept = run_rob_ablation(kernel, rob_sizes=rob_sizes,
                                 spec=WorkloadSpec())
        runs += [("rob", f"rob{n}", kernel, per_isa)
                 for n, per_isa in swept.items()]
    kernels, scales = ABLATION_SCALES
    for kernel in kernels:
        swept = run_trace_length_sensitivity(kernel, scales=scales)
        runs += [("trace_length", f"scale{n}", kernel, per_isa)
                 for n, per_isa in swept.items()]
    results: Dict[str, Dict[str, Dict[str, int]]] = {}
    for ablation, label, kernel, per_isa in runs:
        for isa, result in per_isa.items():
            results.setdefault(f"{ablation}/{kernel}/{isa}", {})[label] = {
                "cycles": result.sim.cycles,
                "instructions": result.sim.instructions,
            }
    return results


def _refuse_unversioned_change(path: str, results: Dict, what: str) -> bool:
    """Whether ``results`` differ from the ones pinned in ``path`` under the
    live ``MODEL_VERSION`` (and say so on stderr)."""
    if not os.path.exists(path):
        return False
    with open(path, "r", encoding="utf-8") as f:
        pinned = json.load(f)
    changed = changed_streams(pinned["results"], results)
    if changed and pinned["model_version"] == versions.MODEL_VERSION:
        print(f"refusing to write: {len(changed)} {what} changed "
              f"({', '.join(changed)}) but MODEL_VERSION is still "
              f"{versions.MODEL_VERSION!r}; bump it in "
              f"src/repro/versions.py first", file=sys.stderr)
        return True
    return False


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def main() -> int:
    streams = stream_fingerprints()
    if os.path.exists(STREAMS_OUT):
        with open(STREAMS_OUT, "r", encoding="utf-8") as f:
            pinned = json.load(f)
        changed = changed_streams(pinned["streams"], streams)
        if changed and pinned["builder_version"] == versions.BUILDER_VERSION:
            print(f"refusing to write: {len(changed)} stream(s) changed "
                  f"({', '.join(changed)}) but BUILDER_VERSION is still "
                  f"{versions.BUILDER_VERSION!r}; bump it in "
                  f"src/repro/versions.py first", file=sys.stderr)
            return 1

    figures, _ = paper_grid_layout()
    grid = simulate_paper_grid()["lowered"]
    ablations = simulate_ablations()
    if (_refuse_unversioned_change(GRID_OUT, grid,
                                   "trace(s)' figure numbers")
            or _refuse_unversioned_change(ABLATIONS_OUT, ablations,
                                          "ablation sweep(s)")):
        return 1

    config = MachineConfig.for_way(4, mem_latency=MEM_LATENCY)
    results = {}
    for name in kernel_names():
        kernel = get_kernel(name)
        spec = WorkloadSpec(scale=kernel.default_scale, seed=SEED)
        workload = kernel.make_workload(spec)
        for isa in ISA_VARIANTS:
            run = run_kernel(name, isa, config=config, workload=workload)
            results[f"{name}/{isa}"] = {
                "cycles": run.sim.cycles,
                "instructions": run.sim.instructions,
                "operations": run.sim.operations,
            }
    _write_json(OUT, {
        "config": "way4",
        "mem_latency": MEM_LATENCY,
        "seed": SEED,
        "note": "seed-commit cycle counts; scale = kernel.default_scale",
        "results": results,
    })
    _write_json(STREAMS_OUT, {"builder_version": versions.BUILDER_VERSION,
                              "streams": streams})
    _write_json(GRID_OUT, {"model_version": versions.MODEL_VERSION,
                           "seed": SEED,
                           "figures": figures,
                           "results": grid})
    _write_json(ABLATIONS_OUT, {"model_version": versions.MODEL_VERSION,
                                "seed": WorkloadSpec().seed,
                                "way": 4,
                                "results": ablations})
    print(f"wrote {len(results)} points to {OUT}, {len(streams)} "
          f"stream fingerprints to {STREAMS_OUT}, {len(grid)} traces' "
          f"figure points to {GRID_OUT} and {len(ablations)} ablation "
          f"sweeps to {ABLATIONS_OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
