"""Startup budget: a run served from the result cache imports no compute.

A warm ``repro figure4|figure5|tables`` reads its points from the result
cache and formats them; it needs neither NumPy nor the kernels, the
builders, the timing backends, the pool, its supervisor, the fault
harness, the journal (it has no ``--resume``), ``tempfile`` or the
service, nor another paper command's driver; the figures need no
metrics either.  A run served from the trace cache simulates, but in pure
Python: it needs no NumPy, kernel, builder or vector backend either.
Each command runs here in a fresh interpreter that reports
``sys.modules`` at exit, so the guard counts what was imported, not how
long it took.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.sweep
import repro.timing

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Runs ``python -m repro ARGS`` and, at exit, writes the names of the
#: modules it imported as JSON to the file named by ``REPRO_MODULES_OUT``.
#: Modules the interpreter loaded before the probe started (``site`` and
#: whatever ``.pth`` files pull in) are not the command's and are left out.
#: With ``REPRO_REPORTS_OUT`` set, it first writes every engine's
#: ``report.counts()`` there, so what reading the report imports counts too.
_PROBE = """
import sys
_before = set(sys.modules)
import atexit, json, os, runpy

_engines = []
if os.environ.get("REPRO_REPORTS_OUT"):
    from repro.sweep.engine import SweepEngine

    _init = SweepEngine.__init__

    def _track(self, *args, **kwargs):
        _init(self, *args, **kwargs)
        _engines.append(self)

    SweepEngine.__init__ = _track

def _dump():
    if _engines:
        with open(os.environ["REPRO_REPORTS_OUT"], "w") as f:
            json.dump([e.report.counts() for e in _engines], f)
    with open(os.environ["REPRO_MODULES_OUT"], "w") as f:
        json.dump(sorted(set(sys.modules) - _before), f)

atexit.register(_dump)
sys.argv = ["repro"] + sys.argv[1:]
runpy.run_module("repro", run_name="__main__")
"""

#: What a process pool loads; an inline run needs none of it.
_POOL_MODULES = ("concurrent.futures", "multiprocessing")

_FORBIDDEN = ("numpy", *_POOL_MODULES,
              "http.client", "urllib.request", "ssl", "tempfile",
              "repro.frontend", "repro.timing.core", "repro.timing.lowered",
              "repro.timing.vector", "repro.sweep.service",
              "repro.sweep.client", "repro.sweep.tracecache",
              "repro.sweep.supervisor", "repro.sweep.faults",
              "repro.sweep.journal")


def _forbidden(module: str) -> bool:
    if module.startswith("repro.kernels."):
        # The catalog is the kernels' NumPy-free part; every kernel
        # module, the base class and the registry import NumPy.
        return module != "repro.kernels.catalog"
    return _under(module, _FORBIDDEN)


def _under(module: str, names) -> bool:
    """Whether ``module`` is one of ``names`` or inside one of them."""
    return any(module == name or module.startswith(name + ".")
               for name in names)


def _run(args, tmp_path, probe=False, reports=False):
    env = dict(os.environ, PYTHONPATH=_SRC,
               REPRO_MODULES_OUT=str(tmp_path / "modules.json"))
    if reports:
        env["REPRO_REPORTS_OUT"] = str(tmp_path / "reports.json")
    argv = ([sys.executable, "-c", _PROBE] if probe
            else [sys.executable, "-m", "repro"])
    proc = subprocess.run(argv + list(args), env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_COMMANDS = {
    "figure4": ["figure4", "--kernels", "comp", "--scale", "1"],
    "figure5": ["figure5", "--kernels", "comp", "--scale", "1"],
    "tables": ["tables", "--kernels", "comp", "--scale", "1"],
}


#: What each warm paper command must not load although the others do:
#: their drivers, and for the figures the metrics only the tables compute.
_OTHER_COMMANDS = {
    "figure4": ("repro.experiments.figure5", "repro.experiments.tables",
                "repro.analysis.metrics"),
    "figure5": ("repro.experiments.figure4", "repro.experiments.tables",
                "repro.analysis.metrics"),
    "tables": ("repro.experiments.figure4", "repro.experiments.figure5"),
}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("warm") / "cache"
    for argv in _COMMANDS.values():
        _run(argv + ["--cache-dir", str(cache)], cache.parent)
    return cache


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_warm_paper_command_imports_no_compute(command, warm_cache,
                                               tmp_path):
    """The engine's report says the cache served every point and nothing
    else happened; reading it loads neither the supervisor nor the pool."""
    out = _run(_COMMANDS[command] + ["--cache-dir", str(warm_cache)],
               tmp_path, probe=True, reports=True)
    assert "0 point(s) simulated" in out, "the cache must serve every point"
    # The command builds one engine: building it checks its flags.
    (counts,) = json.loads((tmp_path / "reports.json").read_text())
    assert counts.pop("cached") > 0
    assert set(counts.values()) == {0}, counts
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert [m for m in modules if _forbidden(m)] == []
    assert [m for m in modules if _under(
        m, ("repro.sweep.supervisor", "concurrent.futures"))] == []
    assert [m for m in modules if _under(m, _OTHER_COMMANDS[command])] == []


def test_trace_hit_figure5_imports_no_numpy(tmp_path):
    """Figure 5 on a cache Figure 4 filled: every result misses (new
    latencies) but every trace hits.  The hits revive as columns and the
    2-4-config groups run the pure-Python lowered interpreter, so NumPy,
    the kernels, the front end and the vector backend stay unloaded — and
    the figure equals a cache-free run."""
    cache = tmp_path / "cache"
    _run(_COMMANDS["figure4"] + ["--cache-dir", str(cache)], tmp_path)
    out = _run(_COMMANDS["figure5"] + ["--cache-dir", str(cache)], tmp_path,
               probe=True)
    assert "0 trace build(s)" in out, "every trace must come from the cache"
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert [m for m in modules
            if m == "numpy" or m.startswith("numpy.")
            or (m.startswith("repro.kernels.")
                and m != "repro.kernels.catalog")
            or m.startswith("repro.frontend")
            or m == "repro.timing.vector"] == []
    assert [m for m in modules if _under(m, _POOL_MODULES)] == []
    fresh = _run(_COMMANDS["figure5"], tmp_path)
    assert out.partition("\n[sweep] ")[0] == fresh


def test_one_group_parallel_sweep_runs_inline(tmp_path):
    """A sweep with one trace group has nothing to spread over workers:
    even at ``--jobs 2`` it runs on the inline executor, so it submits no
    pool task and loads neither ``concurrent.futures`` nor
    ``multiprocessing``."""
    _run(["sweep", "--kernels", "comp", "--isas", "mom", "--ways", "1", "2",
          "4", "8", "--scale", "1", "--jobs", "2"], tmp_path, probe=True,
         reports=True)
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert [m for m in modules if _under(m, _POOL_MODULES)] == []
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert {counts["pool_tasks"] for counts in reports} == {0}


def test_version_imports_no_compute(tmp_path):
    out = _run(["--version"], tmp_path, probe=True)
    assert out.startswith("repro ")
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert [m for m in modules if _forbidden(m)] == []


@pytest.mark.parametrize("package", [repro, repro.sweep, repro.timing],
                         ids=["repro", "repro.sweep", "repro.timing"])
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
