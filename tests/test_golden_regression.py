"""Golden regression tests: exact cycle counts for every kernel x ISA.

``tests/golden/way4_lat1.json`` records the simulated cycle, instruction and
operation counts of all nine kernels x four ISA variants on the paper's
4-way / 1-cycle-memory configuration, as produced by the seed commit.  These
tests assert **exact equality**, so any change to the timing model, the
kernel builders, the workload generators or the sweep plumbing that shifts a
single cycle fails loudly.

If a change is *supposed* to alter the numbers, regenerate the snapshot with

    PYTHONPATH=src python tests/golden/regenerate.py

and bump :data:`repro.timing.core.MODEL_VERSION` in the same commit (the
sweep result cache keys on it).

``tests/golden/streams.json`` pins a SHA-256 of every emitted stream under
the live :data:`repro.frontend.builders.BUILDER_VERSION`, so a stream change
fails here until the version is bumped and the fingerprints regenerated
together (result keys, journal records and service job ids all fold the
builder version in).
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.experiments.runner import run_kernel
from repro.frontend.builders import BUILDER_VERSION
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import get_kernel, kernel_names
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "way4_lat1.json")
STREAMS_PATH = os.path.join(GOLDEN_DIR, "streams.json")


def _load_regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", os.path.join(GOLDEN_DIR, "regenerate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


GOLDEN = _load_golden()
_POINTS = sorted(GOLDEN["results"])


def test_snapshot_covers_all_kernels_and_isas():
    expected = {f"{kernel}/{isa}" for kernel in kernel_names()
                for isa in ISA_VARIANTS}
    assert set(GOLDEN["results"]) == expected
    assert len(expected) == 36  # 9 kernels x 4 ISAs


@pytest.mark.parametrize("point", _POINTS)
def test_golden_cycles_exact(point):
    kernel_name, isa = point.split("/")
    kernel = get_kernel(kernel_name)
    spec = WorkloadSpec(scale=kernel.default_scale, seed=GOLDEN["seed"])
    config = MachineConfig.for_way(4, mem_latency=GOLDEN["mem_latency"])
    run = run_kernel(kernel_name, isa, config=config, spec=spec)
    expected = GOLDEN["results"][point]
    got = {
        "cycles": run.sim.cycles,
        "instructions": run.sim.instructions,
        "operations": run.sim.operations,
    }
    assert got == expected, (
        f"{point}: simulated counts drifted from the golden snapshot "
        f"(got {got}, expected {expected}); if intentional, regenerate "
        f"tests/golden/way4_lat1.json and bump MODEL_VERSION"
    )


def test_stream_fingerprints_move_with_builder_version():
    regenerate = _load_regenerate()
    with open(STREAMS_PATH, "r", encoding="utf-8") as f:
        pinned = json.load(f)
    changed = regenerate.changed_streams(pinned["streams"],
                                         regenerate.stream_fingerprints())
    assert pinned["builder_version"] == BUILDER_VERSION and not changed, (
        f"emitted streams changed: {changed or 'none'}; pinned under "
        f"BUILDER_VERSION {pinned['builder_version']!r}, live "
        f"{BUILDER_VERSION!r}. BUILDER_VERSION and tests/golden/streams.json "
        f"must move together: bump BUILDER_VERSION, then run "
        f"tests/golden/regenerate.py")


def test_changed_streams_names_every_difference():
    changed_streams = _load_regenerate().changed_streams
    assert changed_streams({"a/mom": "1", "b/mmx": "2"},
                           {"a/mom": "1", "b/mmx": "3", "c/mdmx": "4"}) == [
        "b/mmx", "c/mdmx"]
    assert changed_streams({"a/mom": "1"}, {"a/mom": "1"}) == []
