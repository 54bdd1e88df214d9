"""Hermetic process launching, per-run scratch space and the host record.

Every path the benchmark touches lives inside the checkout it measures:
the code under test is ``<checkout>/src`` and all scratch state (temp
caches, journals, service state, bytecode, a stand-in ``HOME``) lives
under ``<checkout>/.perfbench/``, which the repository's ``.gitignore``
names.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "way4_lat1.json"
WORK = ROOT / ".perfbench"

#: A command that runs longer than this is killed and counted as failed.
#: The longest takes a few seconds; one hang must still leave the run
#: well inside three minutes.
COMMAND_TIMEOUT_S = 60.0

#: The calibration file a stray read of ``~/.cache/repro`` would find.  Its
#: cut-over of 2 would route every 4-config paper group to the vector
#: backend, which the traced run's routing check would see.
CANARY = {"format": 1, "vector_min_batch": 2,
          "note": "canary: the benchmark fails if this file is read"}


class CheckoutError(RuntimeError):
    """The directory holds no ``repro`` source to measure."""


def require_checkout() -> None:
    for path in (SRC / "repro" / "cli.py", GOLDEN):
        if not path.is_file():
            raise CheckoutError(f"missing {path.relative_to(ROOT)}: run the "
                                f"benchmark from a full checkout")


@dataclass
class Proc:
    """One finished child process."""

    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Sandbox:
    """Scratch directory of one benchmark run, removed by :meth:`close`.

    ``home`` stands in for ``$HOME`` in every child and in this process;
    it holds a canary ``.cache/repro/calibration.json`` that no pass may
    read or change.
    """

    def __init__(self, label: str) -> None:
        WORK.mkdir(exist_ok=True)
        self.pycache = WORK / "pycache"
        self.dir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))
        self.home = self.dir / "home"
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir()
        self.canary_dir = self.home / ".cache" / "repro"
        self.canary_dir.mkdir(parents=True)
        (self.canary_dir / "calibration.json").write_text(json.dumps(CANARY))
        self._canary = self._canary_state()

    def _canary_state(self) -> Dict[str, bytes]:
        return {str(p.relative_to(self.home)): p.read_bytes()
                for p in sorted(self.home.rglob("*")) if p.is_file()}

    def canary_intact(self) -> bool:
        """Whether nothing under the stand-in ``HOME`` was written."""
        return self._canary_state() == self._canary

    def env(self) -> Dict[str, str]:
        """The hermetic environment of every child process."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("REPRO_", "PYTHON"))}
        env.update({
            "HOME": str(self.home),
            "XDG_CACHE_HOME": str(self.home / ".cache"),
            "TMPDIR": str(self.tmp),
            "PYTHONPATH": str(SRC),
            "PYTHONPYCACHEPREFIX": str(self.pycache),
            "PYTHONHASHSEED": "0",
            "REPRO_CALIBRATION": "off",
        })
        return env

    def adopt_env(self) -> None:
        """Make this process as hermetic as its children, then import the
        checkout's ``repro`` rather than any installed copy."""
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update({"HOME": str(self.home),
                           "XDG_CACHE_HOME": str(self.home / ".cache"),
                           "TMPDIR": str(self.tmp),
                           "REPRO_CALIBRATION": "off"})
        tempfile.tempdir = None
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def mkdtemp(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def launch(argv: Sequence[str], sandbox: Sandbox, name: str
           ) -> "subprocess.Popen[bytes]":
    """Start a child with stdout/stderr in files (never a TTY)."""
    out = open(sandbox.tmp / f"{name}.out", "wb")
    err = open(sandbox.tmp / f"{name}.err", "wb")
    try:
        return subprocess.Popen(list(argv), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=sandbox.env(),
                                cwd=str(sandbox.tmp))
    finally:
        out.close()
        err.close()


def reap(proc: "subprocess.Popen[bytes]", started: float, sandbox: Sandbox,
         name: str, timeout: float = COMMAND_TIMEOUT_S) -> Proc:
    """Wait for ``proc`` with ``wait4`` so its CPU time and peak RSS (its
    own and those of the children it reaped) come back with it."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    read = lambda suffix: (sandbox.tmp / f"{name}.{suffix}").read_text(  # noqa: E731
        encoding="utf-8", errors="replace")
    return Proc(exit_code=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0,
                stdout=read("out"), stderr=read("err"))


def run_process(argv: Sequence[str], sandbox: Sandbox, name: str = "cmd"
                ) -> Proc:
    started = time.perf_counter()
    proc = launch(argv, sandbox, name)
    return reap(proc, started, sandbox, name)


def precompile(sandbox: Sandbox) -> None:
    """Fill the bytecode cache so no measured pass pays compilation."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   env=sandbox.env(), cwd=str(sandbox.tmp), check=True,
                   stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S)


#: The yardstick: a fresh interpreter that imports NumPy, then spends about
#: as long again in a dict, integer and string loop.  That mixes start-up
#: and interpreter-bound work as a ``repro`` command does, in none of
#: ``repro``'s code, so a change to the program cannot move it.  On a
#: shared 2-CPU host, start-up alone and a loop in this process tracked
#: the passes' times worse.
YARDSTICK = """
import json, numpy as np
a = np.arange(200000)
s = sum(int(x) for x in a[:20000])
json.dumps(list(range(5000)))
table, words, acc = {}, [], 0
for i in range(300000):
    key = (i * 2654435761) & 1023
    table[key] = table.get(key, 0) + i
    acc ^= (acc << 1 | i) & 0xFFFFFFFF
    if i % 7 == 0:
        words.append(f"{key}:{acc & 255}")
"""
#: Copies of the yardstick run at once: one per CPU of the 2-CPU hosts the
#: benchmark was sized on, so that it gauges both CPUs a pass may use.
#: Two copies tracked the passes better than one, ``dense-grid``'s most.
YARDSTICK_COPIES = 2
#: The copies' median mean wall time on the 2-CPU host the benchmark was
#: sized on: the speed every reported time is scaled to.
YARDSTICK_REF_S = 0.5


def yardstick(sandbox: Sandbox) -> List[Proc]:
    """:data:`YARDSTICK_COPIES` runs of :data:`YARDSTICK` at once: how
    fast the host is right now."""
    started = time.perf_counter()
    names = [f"yardstick{i}" for i in range(YARDSTICK_COPIES)]
    procs: List["subprocess.Popen[bytes]"] = []
    try:
        for name in names:
            procs.append(launch([sys.executable, "-c", YARDSTICK], sandbox,
                                name))
    except BaseException:
        for proc in procs:
            proc.kill()
            proc.wait()
        raise
    return [reap(proc, started, sandbox, name)
            for proc, name in zip(procs, names)]


def dir_bytes(path: str, exclude: Optional[str] = None) -> int:
    """Total size of the files under ``path`` (skipping subdir ``exclude``)."""
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        if exclude is not None and dirpath == path and exclude in dirnames:
            dirnames.remove(exclude)
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in filenames)
    return total


def _git_commit() -> Optional[str]:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    """SHA-256 over every source file under ``src/repro`` (path + bytes):
    names the code measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(banner: str, loadavg: Sequence[float]) -> Dict[str, object]:
    """What a result must carry to be read against another host's."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_version": banner,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
    }
