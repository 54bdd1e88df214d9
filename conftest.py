"""Repository-level pytest configuration.

Ensures the package under ``src/`` is importable even when the project has
not been installed (the reproduction environment is offline and lacks the
``wheel`` package needed for ``pip install -e .``; ``python setup.py
develop`` or this path shim are the supported alternatives).
"""

import functools
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: wall-clock-heavy tests (subprocess crash/resume scenarios); "
        "deselect with -m 'not slow'")


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap ``owner.attr`` for one test and return the list of its calls.

    ``count_calls(owner, attr, describe=None, calls=None)`` replaces the
    attribute through ``monkeypatch`` (undone after the test) with a
    wrapper that appends ``describe(*args, **kwargs)`` — by default the
    ``(args, kwargs)`` pair — to ``calls`` (a new list unless given, so
    several patches can share one) and then runs the original.  Patch the
    name where callers look it up: the class for a method, the module
    global for a function its module calls by bare name.
    """
    def install(owner, attr, describe=None, calls=None):
        calls = [] if calls is None else calls
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls.append(describe(*args, **kwargs) if describe is not None
                         else (args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
        return calls

    return install


@pytest.fixture
def build_counter(count_calls):
    """Each kernel-variant build of the test, as ``(kernel, isa)``."""
    from repro.kernels.base import Kernel

    return count_calls(Kernel, "run_variant",
                       lambda kernel, isa, *args, **kwargs: (kernel.name, isa))


@pytest.fixture
def lowering_counter(count_calls):
    """Each fresh lowering of the test, as ``(trace name, isa)``: the
    object path's ``lower_trace`` and the column path's zero-copy
    adoption (a memoised or cache-revived lowering is not counted)."""
    from repro.timing import lowered
    from repro.trace.columns import TraceColumns

    calls = count_calls(lowered, "lower_trace",
                        lambda trace: (trace.name, trace.isa))
    return count_calls(TraceColumns, "adopt_lowered",
                       lambda columns, name, isa: (name, isa), calls=calls)
