"""Output checks: a run whose outputs are wrong reports ``correct: false``."""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Sequence

from harness import GOLDEN

#: The engine-summary footer names the cache directory and counts cache
#: hits, so it legitimately differs between a cold and a warm pass.
FOOTER_PREFIX = "[sweep] "


def load_golden() -> Dict[str, Dict[str, int]]:
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    if golden["config"] != "way4" or golden["mem_latency"] != 1:
        raise ValueError(f"{GOLDEN} no longer pins way4, latency 1")
    return golden["results"]


def golden_problems(records: Iterable[Mapping], golden: Mapping[str, Mapping],
                    where: str) -> List[str]:
    """Way-4, latency-1 stream records that disagree with the golden
    cycle counts.  Returns ``[]`` when every such record matches and at
    least one was seen."""
    seen = 0
    problems = []
    for record in records:
        if record.get("config") != "way4" or record.get("mem_latency") != 1:
            continue
        seen += 1
        key = f"{record['kernel']}/{record['isa']}"
        want = golden.get(key)
        got = {k: record.get(k) for k in ("cycles", "instructions",
                                          "operations")}
        if want is None or got != dict(want):
            problems.append(f"{where}: {key} way4/lat1 gave {got}, "
                            f"golden {want}")
    if not seen:
        problems.append(f"{where}: no way4/lat1 record to check")
    return problems


def normalize(stdout: str, paths: Sequence[str]) -> str:
    """Stdout with the pass's temp paths replaced by placeholders."""
    for i, path in enumerate(paths):
        stdout = stdout.replace(path, f"<dir{i}>")
    return stdout


def without_footer(stdout: str) -> str:
    """Stdout minus the engine-summary footer (and the blank line before
    it), for comparing a cold pass with a warm one."""
    lines = stdout.split("\n")
    kept = [line for line in lines if not line.startswith(FOOTER_PREFIX)]
    return "\n".join(kept).rstrip("\n")


def compare_outputs(reference: Mapping[str, str], other: Mapping[str, str],
                    what: str) -> List[str]:
    """One problem per output that differs from the reference."""
    problems = []
    for name in sorted(set(reference) | set(other)):
        if reference.get(name) != other.get(name):
            problems.append(f"{what}: output of {name} differs")
    return problems


def service_reference_problems(fetched: Sequence[Mapping],
                               reference: Sequence[Mapping]) -> List[str]:
    """A fetched job's result rows against an in-process engine run of the
    same points (``{"index", "sim", "stats"}`` rows)."""
    if len(fetched) != len(reference):
        return [f"service fetch has {len(fetched)} rows, in-process run "
                f"{len(reference)}"]
    problems = []
    for got, want in zip(fetched, reference):
        for field in ("index", "sim", "stats"):
            if got.get(field) != want[field]:
                problems.append(f"service fetch row {want['index']}: "
                                f"{field} differs from the in-process run")
                break
    return problems
