#!/usr/bin/env python3
"""CI smoke test of the result log: SIGKILL a figure, re-run it, diff.

Launches ``repro figure4`` on a fresh ``--cache-dir`` (no ``--resume``),
SIGKILLs it as soon as a few records are in ``<cache-dir>/log/``, re-runs
the same command and then verifies:

1. the re-run reports at least the records found at kill time as served
   "from cache" (the killed run's flushed lines are durable, and a torn
   tail it may have left is skipped);
2. its stdout, without the ``[sweep]`` footer, equals a cache-free run of
   the same figure byte for byte.

Exits nonzero (with a diagnostic) on any violation.  Usage::

    python scripts/figure_kill_smoke.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time

FIGURE_ARGS = ["figure4", "--kernels", "comp", "h2v2", "--scale", "1"]

#: Records the killed run must have flushed before the kill.
MIN_RECORDS = 4


def _argv(cache_dir=None) -> list:
    argv = [sys.executable, "-m", "repro"] + FIGURE_ARGS
    return argv + ["--cache-dir", cache_dir] if cache_dir else argv


def _run(argv: list) -> str:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(argv)} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return proc.stdout


def _records(log_dir: str) -> int:
    """Complete (newline-terminated) lines across the log's segments."""
    count = 0
    for name in os.listdir(log_dir) if os.path.isdir(log_dir) else ():
        with open(os.path.join(log_dir, name), "rb") as f:
            count += f.read().count(b"\n")
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="directory for the cache (default: a tempdir)")
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="figure-kill-smoke-")
    cache_dir = os.path.join(workdir, "cache")
    log_dir = os.path.join(cache_dir, "log")

    # -- 1. start the figure and SIGKILL it once records are flushed ------
    proc = subprocess.Popen(_argv(cache_dir), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.time() + 120
    while time.time() < deadline and proc.poll() is None:
        if _records(log_dir) >= MIN_RECORDS:
            break
        time.sleep(0.005)
    proc.kill()
    proc.wait(timeout=60)
    flushed = _records(log_dir)
    print(f"killed figure4 with {flushed} record(s) in the result log")
    if flushed < MIN_RECORDS:
        raise SystemExit(f"FAIL: fewer than {MIN_RECORDS} records were "
                         f"flushed before the kill")

    # -- 2. re-run: the flushed records are served from the cache ---------
    out = _run(_argv(cache_dir))
    footer = re.search(r"\[sweep\] (\d+) point\(s\) simulated, "
                       r"(\d+) from cache", out)
    if footer is None:
        raise SystemExit(f"FAIL: no [sweep] footer in the re-run:\n{out}")
    if int(footer.group(2)) < flushed:
        raise SystemExit(f"FAIL: re-run served {footer.group(2)} point(s) "
                         f"from cache, the log held {flushed}:\n{out}")
    print(f"re-run: {footer.group(1)} simulated, {footer.group(2)} from "
          f"cache")

    # -- 3. the figure equals a cache-free run byte for byte --------------
    fresh = _run(_argv())
    figure = out.partition("\n[sweep] ")[0]
    if figure != fresh:
        raise SystemExit(f"FAIL: re-run figure differs from a cache-free "
                         f"run:\n--- re-run\n{figure}\n--- fresh\n{fresh}")
    print("re-run figure is byte-identical to a cache-free run; "
          "figure kill smoke PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
