"""Golden regression tests: exact cycle counts for every kernel x ISA.

``tests/golden/way4_lat1.json`` records the simulated cycle, instruction and
operation counts of all nine kernels x four ISA variants on the paper's
4-way / 1-cycle-memory configuration, as produced by the seed commit.  These
tests assert **exact equality**, so any change to the timing model, the
kernel builders, the workload generators or the sweep plumbing that shifts a
single cycle fails loudly.

If a change is *supposed* to alter the numbers, regenerate the snapshot with

    PYTHONPATH=src python tests/golden/regenerate.py

and bump :data:`repro.versions.MODEL_VERSION` in the same commit (the
sweep result cache keys on it).

``tests/golden/streams.json`` pins a SHA-256 of every emitted stream under
the live :data:`repro.versions.BUILDER_VERSION`, so a stream change
fails here until the version is bumped and the fingerprints regenerated
together (result keys, journal records and service job ids all fold the
builder version in).

``tests/golden/paper_grid.json`` pins cycles, instructions and the stall
breakdown of every point Figure 4 and Figure 5 print, under the live
:data:`repro.versions.MODEL_VERSION`; the lowered interpreter and the
vector batch backend must both reproduce it exactly.

``tests/golden/ablations.json`` pins cycles and instructions of every
point of the three ablation sweeps (MOM lanes, reorder-buffer size,
workload scale) that ``tests/experiments/test_paper_shapes.py`` checks,
under the same ``MODEL_VERSION`` rule.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os

import pytest

from repro import versions
from repro.experiments.runner import run_kernel, run_kernel_all_isas
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import get_kernel, kernel_names
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "way4_lat1.json")
STREAMS_PATH = os.path.join(GOLDEN_DIR, "streams.json")
GRID_PATH = os.path.join(GOLDEN_DIR, "paper_grid.json")
ABLATIONS_PATH = os.path.join(GOLDEN_DIR, "ablations.json")


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


def _golden_inputs(kernel_name):
    spec = WorkloadSpec(scale=get_kernel(kernel_name).default_scale,
                        seed=GOLDEN["seed"])
    config = MachineConfig.for_way(4, mem_latency=GOLDEN["mem_latency"])
    return config, spec


def _counts(run):
    return {"cycles": run.sim.cycles, "instructions": run.sim.instructions,
            "operations": run.sim.operations}


@functools.lru_cache(maxsize=None)
def _all_isas_counts(kernel_name):
    """Counts per ISA from one ``run_kernel_all_isas`` call (the path the
    examples take), shared by the kernel's four golden points."""
    config, spec = _golden_inputs(kernel_name)
    runs = run_kernel_all_isas(kernel_name, config=config, spec=spec)
    return {isa: _counts(run) for isa, run in runs.items()}


# ``run_kernel`` keeps the plain ``kernel/isa`` ids; the
# ``run_kernel_all_isas`` path is the same points under an ``-all_isas``
# suffix.
@pytest.mark.parametrize(
    "point, all_isas",
    [pytest.param(p, False, id=p) for p in _POINTS]
    + [pytest.param(p, True, id=f"{p}-all_isas") for p in _POINTS])
def test_golden_cycles_exact(point, all_isas):
    kernel_name, isa = point.split("/")
    if all_isas:
        got = _all_isas_counts(kernel_name)[isa]
    else:
        config, spec = _golden_inputs(kernel_name)
        got = _counts(run_kernel(kernel_name, isa, config=config, spec=spec))
    expected = GOLDEN["results"][point]
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
    live = versions.BUILDER_VERSION
    assert pinned["builder_version"] == live and not changed, (
        f"emitted streams changed: {changed or 'none'}; pinned under "
        f"BUILDER_VERSION {pinned['builder_version']!r}, live "
        f"{live!r}. BUILDER_VERSION and tests/golden/streams.json "
        f"must move together: bump BUILDER_VERSION, then run "
        f"tests/golden/regenerate.py")


def test_changed_streams_names_every_difference():
    changed_streams = _load_regenerate().changed_streams
    assert changed_streams({"a/mom": "1", "b/mmx": "2"},
                           {"a/mom": "1", "b/mmx": "3", "c/mdmx": "4"}) == [
        "b/mmx", "c/mdmx"]
    assert changed_streams({"a/mom": "1"}, {"a/mom": "1"}) == []


def _load_grid():
    with open(GRID_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


@functools.lru_cache(maxsize=None)
def _simulated_grid():
    """Each figure trace built once and run on both batch backends (the
    vector program is forced even for the six machines of one trace)."""
    return _load_regenerate().simulate_paper_grid(("lowered", "vector"))


def test_paper_grid_covers_every_figure_point():
    pinned = _load_grid()
    figures, groups = _load_regenerate().paper_grid_layout()
    assert pinned["figures"] == figures
    assert set(pinned["results"]) == set(groups)
    for figure, expected in (("figure4", 144), ("figure5", 108)):
        points = [(trace, label) for trace, per_config
                  in pinned["results"].items()
                  for label in figures[figure] if label in per_config]
        assert len(points) == len(groups) * len(figures[figure]) == expected
    assert pinned["model_version"] == versions.MODEL_VERSION, (
        "MODEL_VERSION moved: regenerate tests/golden/paper_grid.json with "
        "tests/golden/regenerate.py in the same commit")


@pytest.mark.parametrize("backend", ["lowered", "vector"])
def test_paper_grid_exact(backend):
    pinned = _load_grid()["results"]
    got = _simulated_grid()[backend]
    changed = _load_regenerate().changed_streams(pinned, got)
    assert not changed, (
        f"{backend}: figure points drifted from tests/golden/paper_grid.json "
        f"for {changed}; if intentional, bump MODEL_VERSION and run "
        f"tests/golden/regenerate.py")


def _load_ablations():
    with open(ABLATIONS_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


def test_ablations_cover_every_sweep_point():
    pinned = _load_ablations()
    regenerate = _load_regenerate()
    expected = {}
    for ablation, label, isas, (kernels, values) in (
            ("lanes", "lanes", ("mom",), regenerate.ABLATION_LANES),
            ("rob", "rob", ISA_VARIANTS, regenerate.ABLATION_ROB_SIZES),
            ("trace_length", "scale", ISA_VARIANTS,
             regenerate.ABLATION_SCALES)):
        for kernel in kernels:
            for isa in isas:
                expected[f"{ablation}/{kernel}/{isa}"] = {
                    f"{label}{value}" for value in values}
    assert {trace: set(points) for trace, points
            in pinned["results"].items()} == expected
    assert sum(map(len, expected.values())) == 65
    assert pinned["model_version"] == versions.MODEL_VERSION, (
        "MODEL_VERSION moved: regenerate tests/golden/ablations.json with "
        "tests/golden/regenerate.py in the same commit")


def test_ablations_exact():
    regenerate = _load_regenerate()
    changed = regenerate.changed_streams(_load_ablations()["results"],
                                         regenerate.simulate_ablations())
    assert not changed, (
        f"ablation points drifted from tests/golden/ablations.json for "
        f"{changed}; if intentional, bump MODEL_VERSION and run "
        f"tests/golden/regenerate.py")
