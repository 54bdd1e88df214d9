"""Atomic JSON writes: the bytes on disk are what ``json.dump`` writes,
and a cache entry is encoded once for its checksum and its file."""

import io
import json

import pytest

from repro.common.atomicio import (atomic_write_text, encode_stamped,
                                   verify_checksum)
from repro.sweep.cache import ResultCache
from repro.sweep.service import SweepService
from repro.sweep.spec import SweepPoint
from repro.timing.config import MachineConfig
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats
from repro.workloads.generators import WorkloadSpec


def _dump(obj, **kwargs) -> bytes:
    buf = io.StringIO()
    json.dump(obj, buf, **kwargs)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("kwargs", [
    {"sort_keys": True},
    {"sort_keys": True, "separators": (",", ":")},
    {"indent": 2},
], ids=["result-entry", "trace-entry", "indented"])
def test_write_matches_json_dump(tmp_path, kwargs):
    entry = {"b": [1, 2.5, None, True], "a": {"z": "ü"},
             "c": {"nested": [{"k": -1}]}}
    encode_stamped(entry)
    path = tmp_path / "entry.json"
    atomic_write_text(str(path), json.dumps(entry, **kwargs))
    assert path.read_bytes() == _dump(entry, **kwargs)


def test_service_job_file_matches_json_dump(tmp_path):
    service = SweepService(str(tmp_path / "state"))
    job, _created = service.submit({"kernels": ["comp"], "ways": [1],
                                    "latencies": [1], "scale": 1})
    path = tmp_path / "state" / "jobs" / f"{job['id']}.json"
    assert path.read_bytes() == _dump(json.loads(path.read_text()),
                                      sort_keys=True)


def test_result_cache_entry_matches_json_dump(tmp_path):
    cache = ResultCache(str(tmp_path))
    point = SweepPoint(kernel="comp", isa="mom",
                       config=MachineConfig.for_way(4),
                       spec=WorkloadSpec(scale=1, seed=3))
    sim = SimResult(cycles=37, instructions=16, operations=512,
                    kernel="comp", isa="mom", config_name="way4",
                    stall_breakdown={"rob": 2})
    key = cache.put(point, sim, TraceStats(num_instructions=16))
    path = tmp_path / key[:2] / f"{key}.json"
    entry = json.loads(path.read_text())
    # One encoding serves the checksum and the file: the canonical JSON
    # of the entry body, with the stamp appended as the last member.
    body = {k: v for k, v in entry.items() if k != "checksum"}
    assert list(entry)[-1] == "checksum"
    assert path.read_bytes() == (
        _dump(body, sort_keys=True, separators=(",", ":"))[:-1]
        + f',"checksum":"{entry["checksum"]}"}}'.encode())
    assert verify_checksum(entry)


def test_encode_stamped_is_the_stamped_entry():
    entry = {"b": [1, 2.5, None, True], "a": {"z": "ü"}}
    text = encode_stamped(entry)
    assert json.loads(text) == entry and "checksum" in entry
    assert verify_checksum(json.loads(text))
    empty = {}
    assert json.loads(encode_stamped(empty)) == empty
    assert verify_checksum(empty)
