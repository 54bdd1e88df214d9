"""``python -m repro`` spends CPU only on its own command.

NumPy's BLAS is pinned to one thread before anything imports NumPy (the
kernels are integer code; its helper threads would only spin), and a
command that returned leaves through ``os._exit`` after flushing the
standard streams and running the ``atexit`` hooks, so the interpreter does
not free the command's heap object by object.  Anything that exit would
have waited for (a non-daemon thread) or failed on (a closed stdout) takes
the interpreter's own exit.  Each test runs a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = _SRC
    env.update(extra)
    return env


#: Imports the entry point as a module (``main()`` does not run) and
#: reports the BLAS thread count and whether NumPy is loaded yet.
_PIN_PROBE = """
import json, os, sys
import repro.__main__
print(json.dumps({"threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("given", [None, "3"])
def test_blas_is_pinned_before_numpy_loads(given):
    """One BLAS thread unless the caller chose a count."""
    env = _env() if given is None else _env(OPENBLAS_NUM_THREADS=given)
    proc = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"threads": given or "1", "numpy": False}


#: Runs ``python -m repro ARGS`` and, from an ``atexit`` hook, writes the
#: process's thread count and whether it loaded NumPy to ``PROBE_OUT``.
_THREADS_PROBE = """
import atexit, json, os, runpy, sys

def _count():
    with open(os.environ["PROBE_OUT"], "w") as f:
        json.dump({"threads": len(os.listdir("/proc/self/task")),
                   "numpy": "numpy" in sys.modules}, f)

atexit.register(_count)
sys.argv = ["repro"] + sys.argv[1:]
runpy.run_module("repro", run_name="__main__")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads under /proc (Linux)")
def test_cold_command_has_one_thread_at_exit(tmp_path):
    out = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, "figure4", "--kernels", "comp",
         "--scale", "1", "--cache-dir", str(tmp_path / "cache")],
        env=_env(PROBE_OUT=str(out)), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == {"threads": 1, "numpy": True}


#: Runs ``python -m repro ARGS`` with a ``main()`` that leaves a
#: non-daemon thread behind, which writes ``LATE_OUT`` after a while, and
#: an ``atexit`` hook that records in ``HOOK_OUT`` whether it had.
_LATE_THREAD_PROBE = """
import atexit, os, runpy, sys, threading, time
import repro.cli

_main = repro.cli.main

def _hook():
    with open(os.environ["HOOK_OUT"], "w") as f:
        f.write(str(os.path.exists(os.environ["LATE_OUT"])))

atexit.register(_hook)

def _late():
    time.sleep(0.3)
    with open(os.environ["LATE_OUT"], "w") as f:
        f.write("done")

def main(argv=None):
    code = _main(argv)
    threading.Thread(target=_late).start()
    return code

repro.cli.main = main
sys.argv = ["repro"] + sys.argv[1:]
runpy.run_module("repro", run_name="__main__")
"""


def test_exit_waits_for_a_non_daemon_thread(tmp_path):
    """The thread finishes, and the ``atexit`` hooks run after it did, as
    in the interpreter's own exit."""
    late, hook = tmp_path / "late.txt", tmp_path / "hook.txt"
    proc = subprocess.run(
        [sys.executable, "-c", _LATE_THREAD_PROBE, "list"],
        env=_env(LATE_OUT=str(late), HOOK_OUT=str(hook)),
        capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert late.read_text() == "done"
    assert hook.read_text() == "True"


def test_closed_stdout_keeps_its_exit_status_and_message(tmp_path):
    """A reader that went away (``repro sweep ... | head -1`` once
    ``head`` has exited): the final flush fails as it always did, with
    exit status 120 and Python's two-line note, and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--kernels", "comp",
             "--isas", "mom", "--ways", "1", "4", "--scale", "1",
             "--cache-dir", str(tmp_path / "cache")],
            env=_env(), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert re.fullmatch(
        r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>'[^\n]*>\n"
        r"BrokenPipeError: \[Errno 32\] Broken pipe\n", proc.stderr), \
        proc.stderr
