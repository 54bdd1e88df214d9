#!/usr/bin/env python3
"""Regenerate the golden cycle-count snapshot and the stream fingerprints.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Writes two files:

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
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro import versions  # noqa: E402
from repro.experiments.runner import run_kernel  # noqa: E402
from repro.kernels.base import ISA_VARIANTS  # noqa: E402
from repro.kernels.registry import get_kernel, kernel_names  # noqa: E402
from repro.timing.config import MachineConfig  # noqa: E402
from repro.workloads.generators import WorkloadSpec  # noqa: E402

SEED = 1999
MEM_LATENCY = 1
OUT = os.path.join(os.path.dirname(__file__), "way4_lat1.json")
STREAMS_OUT = os.path.join(os.path.dirname(__file__), "streams.json")


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
    """Names whose fingerprint differs between ``pinned`` and ``streams``."""
    return sorted(name for name in set(pinned) | set(streams)
                  if pinned.get(name) != streams.get(name))


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
    print(f"wrote {len(results)} points to {OUT} and {len(streams)} "
          f"stream fingerprints to {STREAMS_OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
