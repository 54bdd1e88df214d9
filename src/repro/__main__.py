"""``python -m repro`` entry point."""

import atexit
import os
import sys

# One BLAS thread, unless the caller chose a count.  The kernels are 8- and
# 16-bit integer code, so NumPy's OpenBLAS has no work here, and each helper
# thread it starts spins idle on the CPUs the command needs.  It must be set
# before anything imports NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cli import main  # noqa: E402

#: Exit codes of an interrupted command (Ctrl-C, SIGTERM): they leave
#: through the interpreter's own exit, like exceptions and argparse errors.
_INTERRUPTED = (130, 143)


def _exit_now(code: int) -> None:
    """End the process with ``code`` without tearing its heap down.

    ``main()`` has closed its sinks and stores.  What the interpreter's
    own exit would add is freeing every object the command made, one by
    one.  So flush the standard streams, run the ``atexit`` hooks and
    leave with :func:`os._exit` -- unless a non-daemon thread remains:
    the interpreter's exit joins those before it runs the hooks, so the
    check comes first and the hooks are left to it.  Returns (and the
    caller exits as usual) when any step or check fails.  This stays out
    of ``main()``, which tests and in-process benchmark passes call.
    """
    try:
        threading = sys.modules.get("threading")
        if threading is not None and any(
                not t.daemon and t is not threading.main_thread()
                for t in threading.enumerate()):
            return
        sys.stdout.flush()
        sys.stderr.flush()
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
    except BaseException:  # noqa: BLE001 - fall back to the normal exit
        return
    os._exit(code)


if __name__ == "__main__":
    code = main()
    if code not in _INTERRUPTED:
        _exit_now(code)
    raise SystemExit(code)
