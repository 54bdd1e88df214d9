"""Engine-visible caching semantics of the result store.

The SQLite backend was removed; the JSON :class:`ResultCache` is the only
result store.  These parity checks keep pinning what the engine sees of it:
a warm rerun simulates nothing, a model-version bump resimulates, and warm
results are identical to a cold run.  The model version is read live from
``repro.versions.MODEL_VERSION``, so the bump patches that.
"""

from __future__ import annotations

import pytest

import repro.versions
from repro.sweep import SweepEngine, SweepSpec
from repro.sweep.cache import ResultCache
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)

# Result-store kind -> the class the engine caches through.
_STORES = {"json": ResultCache}


def _sweep(kernels=("comp",), ways=(1, 2)) -> SweepSpec:
    return SweepSpec.make(kernels=list(kernels),
                          configs=[MachineConfig.for_way(w) for w in ways],
                          spec=_SPEC)


def _engine(cache_dir: str, store: str) -> SweepEngine:
    engine = SweepEngine(cache_dir=cache_dir)
    assert isinstance(engine.cache, _STORES[store])
    return engine


class TestEngineParity:
    """The engine's caching semantics on the result store."""

    @pytest.mark.parametrize("store", _STORES)
    def test_warm_rerun_simulates_nothing(self, tmp_path, store):
        sweep = _sweep()
        _engine(str(tmp_path), store).run(sweep)
        engine = _engine(str(tmp_path), store)
        engine.run(sweep)
        assert engine.last_cached == len(sweep)
        assert engine.last_simulated == 0

    @pytest.mark.parametrize("store", _STORES)
    def test_version_bump_resimulates(self, tmp_path, store, monkeypatch):
        sweep = _sweep(ways=(1,))
        _engine(str(tmp_path), store).run(sweep)
        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "bumped")
        engine = _engine(str(tmp_path), store)
        engine.run(sweep)
        assert engine.last_simulated == len(sweep)

    @pytest.mark.parametrize("store", _STORES)
    def test_identical_results_across_backends(self, tmp_path, store):
        sweep = _sweep(ways=(1,))
        cold = SweepEngine().run(sweep)
        _engine(str(tmp_path), store).run(sweep)
        warm = _engine(str(tmp_path), store).run(sweep)
        assert [r.sim for r in warm] == [r.sim for r in cold]
