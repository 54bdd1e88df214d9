"""What a warm result-log lookup costs, and that it still checks everything.

The log is indexed by key from raw lines (:func:`repro.sweep.cache.scan_log`):
a hit decodes only the line it serves, which must carry the requested
``"key"``, and checks its SHA-256 stamp over the stored bytes.  A line in
another layout (``", "`` separators, a stamp in sorted position) takes the
decode-and-re-encode check and hits as before.  Each point is hashed once
per run, from its machine's canonical JSON, made once per config object,
and the keys are those of every earlier cache.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from repro import versions
from repro.cli import main
from repro.common import atomicio
from repro.common.atomicio import encode_stamped
from repro.kernels.catalog import ISA_VARIANTS
from repro.sweep import cache as cache_module
from repro.sweep import engine as engine_module
from repro.sweep import service as service_module
from repro.sweep.cache import ResultCache, point_key, read_jsonl
from repro.sweep.engine import SweepEngine
from repro.sweep.service import SweepService
from repro.sweep.spec import SweepPoint, grid_points
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
_SPEC = WorkloadSpec(scale=1, seed=7)
_CFG = MachineConfig.for_way(4)
_POINTS = [SweepPoint("comp", isa, _CFG, _SPEC) for isa in ISA_VARIANTS]


def _canonical_key(point: SweepPoint) -> str:
    """The key formula written out: SHA-256 of the sorted, compact JSON of
    the versions, kernel, ISA, every config field (latencies by op-class
    name) and the workload."""
    point = point.resolved()
    config = {f.name: getattr(point.config, f.name)
              for f in fields(point.config)}
    config["latencies"] = {op.value: lat
                           for op, lat in config["latencies"].items()}
    payload = {"model_version": versions.MODEL_VERSION,
               "builder_version": versions.BUILDER_VERSION,
               "kernel": point.kernel, "isa": point.isa, "config": config,
               "workload": {"scale": point.spec.scale,
                            "seed": point.spec.seed}}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A log holding comp at way 4 on every ISA, and its lines."""
    cache_dir = str(tmp_path_factory.mktemp("filled"))
    SweepEngine(cache_dir=cache_dir).run(_POINTS)
    (segment,) = os.listdir(os.path.join(cache_dir, "log"))
    with open(os.path.join(cache_dir, "log", segment), "rb") as f:
        lines = f.read().splitlines()
    return cache_dir, lines


def _log(tmp_path, lines) -> str:
    """A cache dir whose log is one segment holding ``lines``."""
    os.makedirs(tmp_path / "log")
    with open(tmp_path / "log" / "1-1.jsonl", "wb") as f:
        f.write(b"".join(line + b"\n" for line in lines))
    return str(tmp_path)


def _entry(lines, point):
    key = point_key(point)
    return next(e for e in map(json.loads, lines) if e["key"] == key)


class TestKey:
    def test_pinned_key(self):
        """Every cache written so far keys this point so: a change to the
        key's bytes would orphan them all."""
        assert point_key(SweepPoint("comp", "mom", _CFG, _SPEC)) == \
            "e69ee0a7cfd58981a757b947bd671ffd157ef2148fe1df62c5446007900315eb"

    def test_key_is_the_canonical_json_formula(self):
        points = grid_points(None, ISA_VARIANTS, [1, 2, 4, 8], [1, 12, 50],
                             None, 1999)
        points += [SweepPoint("comp", "mom", MachineConfig()),
                   SweepPoint("idct", "mmx", _CFG.with_updates(
                       media_lanes=2, int_queue_size=0), _SPEC)]
        assert [point_key(p) for p in points] == \
            [_canonical_key(p) for p in points]

    def test_canonical_json_is_made_once_per_config(self, count_calls):
        config = MachineConfig.for_way(2)
        encodes = count_calls(MachineConfig, "canonical_dict")
        for isa in ISA_VARIANTS:
            point_key(SweepPoint("comp", isa, config, _SPEC))
        assert len(encodes) == 1
        assert "canonical_json" in vars(config), "kept on the object"
        point_key(SweepPoint("comp", "mom",
                             config.with_updates(mem_latency=12), _SPEC))
        assert len(encodes) == 2, "a new object encodes its own machine"


class TestWarmHit:
    def test_a_hit_decodes_only_its_line_and_hashes_stored_bytes(
            self, filled, count_calls):
        cache_dir, lines = filled
        keys = [point_key(p) for p in _POINTS]
        decode = json.loads
        loads = count_calls(json, "loads",
                            lambda text, *a, **k: decode(text)["key"])
        dumps = count_calls(json, "dumps")
        checksums = count_calls(atomicio, "payload_checksum")
        reencodes = count_calls(cache_module, "verify_checksum")
        cache = ResultCache(cache_dir)
        assert cache.get(_POINTS[1], keys[1]) is not None
        assert cache.get(_POINTS[3], keys[3]) is not None
        assert loads == [keys[1], keys[3]], "served records only"
        assert (dumps, checksums, reencodes) == ([], [], [])
        assert (cache.hits, cache.misses, cache.corrupt) == (2, 0, 0)

    def test_key_token_nested_in_a_value_never_serves(self, filled,
                                                      tmp_path):
        """A ``"key":"..."`` inside a value names another point's key: that
        point misses, whether the line has its own top-level key or not."""
        _cache_dir, lines = filled
        mom, mmx = _POINTS[3], _POINTS[1]
        assert (mom.isa, mmx.isa) == ("mom", "mmx")
        other = point_key(mmx)
        with_own = _entry(lines, mom)
        with_own["workload"]["key"] = other
        keyless = _entry(lines, mom)
        del keyless["key"]
        keyless["workload"]["key"] = other
        cache_dir = _log(tmp_path, [encode_stamped(with_own).encode(),
                                    encode_stamped(keyless).encode()])
        cache = ResultCache(cache_dir)
        assert cache.get(mmx) is None
        assert cache.corrupt == 0
        hit = cache.get(mom)
        assert hit is not None and hit[0].isa == "mom"

    @pytest.mark.parametrize("encode", [
        lambda entry: json.dumps(entry),
        lambda entry: json.dumps(entry, sort_keys=True),
        lambda entry: json.dumps(entry, separators=(", ", ":")),
    ], ids=["spaced-separators", "stamp-in-sorted-position",
            "spaced-items"])
    def test_legacy_line_still_hits(self, filled, tmp_path, encode):
        _cache_dir, lines = filled
        entry = _entry(lines, _POINTS[0])
        cache_dir = _log(tmp_path, [encode(entry).encode()])
        cache = ResultCache(cache_dir)
        assert cache.get(_POINTS[0]) == ResultCache(filled[0]).get(_POINTS[0])
        assert (cache.hits, cache.corrupt) == (1, 0)

    def test_rotten_newest_line_leaves_the_older_record(self, filled,
                                                        tmp_path):
        """A newest line that no longer parses is skipped, as the decoding
        scan skipped it: the older record for the key serves."""
        _cache_dir, lines = filled
        line = lines[0]
        rotten = line.replace(b'"sim":{', b'"sim":{{', 1)
        cache_dir = _log(tmp_path, [line, rotten])
        cache = ResultCache(cache_dir)
        assert cache.get(_POINTS[0]) is not None
        assert cache.corrupt == 0

    def test_changed_byte_is_corrupt(self, filled, tmp_path):
        _cache_dir, lines = filled
        at = lines[0].index(b'"cycles":') + len(b'"cycles":')
        digit = lines[0][at:at + 1]
        changed = (lines[0][:at] + str((int(digit) + 1) % 10).encode()
                   + lines[0][at + 1:])
        cache = ResultCache(_log(tmp_path, [changed]))
        assert cache.get(_POINTS[0]) is None
        assert (cache.corrupt, cache.misses) == (1, 1)


class TestOneKeyPerPoint:
    @pytest.fixture
    def key_calls(self, count_calls):
        calls = []
        for module in (cache_module, engine_module, service_module):
            count_calls(module, "point_key",
                        lambda point: (point.kernel, point.isa,
                                       point.config.name), calls)
        return calls

    def test_cold_cached_resumed_cli_run(self, tmp_path, key_calls):
        argv = ["sweep", "--kernels", "comp", "--ways", "1", "4", "--scale",
                "1", "--cache-dir", str(tmp_path / "cache"),
                "--resume", str(tmp_path / "journal.jsonl")]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert "8 point(s) simulated" in out.getvalue()
        assert len(key_calls) == len(set(key_calls)) == 8

    def test_service_job(self, tmp_path, key_calls):
        service = SweepService(str(tmp_path / "state"))
        service.start()
        try:
            job, _ = service.submit({"kernels": ["comp"], "ways": [1, 4],
                                     "scale": 1})
            deadline = time.monotonic() + 120
            while service.job(job["id"])["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            service.drain()
        assert service.job(job["id"])["status"] == "done"
        assert len(service.result(job["id"])["results"]) == 8
        assert len(key_calls) == len(set(key_calls)) == 8


def _child_repro(argv, env):
    """Run ``python -m repro ARGV`` in a process group of its own; return
    it once it exited, with no process of its group left behind."""
    proc = subprocess.Popen([sys.executable, "-m", "repro", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    out, err = proc.communicate(timeout=300)
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)
    os.killpg(proc.pid, signal.SIGKILL)
    raise AssertionError(f"a process of {argv} outlived it")


def test_warm_process_exit_loses_no_output(tmp_path):
    """``python -m repro`` leaves through ``os._exit`` once ``main()``
    returns, and ``main()`` never does: a child's buffered stdout equals an
    in-process ``main()`` run's, its stream file, result log and journal
    are complete, and no process it started outlives it -- warm, cold with
    ``--resume``, and cold on a ``--jobs 2`` pool.  The in-process runs
    leave the collector's frozen set as they found it."""
    cache_dir = str(tmp_path / "cache")
    argv = ["tables", "--kernels", "comp", "--scale", "1",
            "--cache-dir", cache_dir]
    frozen = gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv + ["--stream-jsonl",
                            str(tmp_path / "inproc.jsonl")]) == 0
    assert gc.get_freeze_count() == frozen
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as piped
    stream = tmp_path / "child.jsonl"
    proc = _child_repro(argv + ["--stream-jsonl", str(stream)], env)
    assert proc.returncode == 0, proc.stderr
    assert b"0 point(s) simulated, 4 from cache" in proc.stdout
    assert proc.stdout == out.getvalue().encode()
    scan = read_jsonl(str(stream))
    assert scan.torn_bytes == scan.skipped_lines == 0
    assert sorted(r["index"] for r in scan.records) == [0, 1, 2, 3]
    assert all(r["cached"] for r in scan.records)

    # Cold: the in-process run and the child each start from an empty
    # cache at one path, so both print the same footer.
    journal = str(tmp_path / "journal.jsonl")

    def empty() -> None:
        shutil.rmtree(cache_dir)
        for path in (journal, str(stream)):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    for extra in (["--resume", journal], ["--jobs", "2"]):
        cold = argv + extra + ["--stream-jsonl", str(stream)]
        empty()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(cold) == 0
        empty()
        proc = _child_repro(cold, env)
        assert proc.returncode == 0, proc.stderr
        assert b"4 point(s) simulated, 0 from cache" in proc.stdout
        assert proc.stdout == out.getvalue().encode()
        (segment,) = os.listdir(os.path.join(cache_dir, "log"))
        written = {"stream": str(stream),
                   "log": os.path.join(cache_dir, "log", segment)}
        if "--resume" in extra:
            written["journal"] = journal
        for name, path in written.items():
            scan = read_jsonl(path)
            assert scan.torn_bytes == scan.skipped_lines == 0, name
            isas = sorted(r["isa"] for r in scan.records if "isa" in r)
            assert isas == sorted(ISA_VARIANTS), name
