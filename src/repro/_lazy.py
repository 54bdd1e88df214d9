"""PEP 562 lazy exports for package ``__init__`` modules.

A package that re-exports its members eagerly imports every submodule —
and everything those import — the moment any one of its submodules is
imported.  Serving the re-exports through a module ``__getattr__`` keeps
``from repro.sweep import SweepEngine`` working while importing only the
submodule that defines the name, on first use.
"""

import importlib
import sys
from typing import Any, Callable, Dict, Sequence


def lazy_exports(package: str,
                 exports: Dict[str, Sequence[str]]) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``package`` serving ``exports`` — a map from
    submodule name to the names it provides.  Each name is imported on
    first access and then bound on the package, so later lookups are plain
    attribute reads."""
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
