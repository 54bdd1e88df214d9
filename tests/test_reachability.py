"""Every definition under ``src/repro`` is read by something that runs.

A function, class, method or module constant whose name is read nowhere
in ``src/``, ``scripts/``, ``examples/``, ``perfbench/`` or
``tests/golden/regenerate.py`` is reached only by its own unit tests, if at
all: it is dead code with a test attached.  This test names each one by
``file:line``.  A definition's own body, ``__all__`` lists and
``lazy_exports`` maps are not reads (imports are not either, nor any
string), so a helper that is only re-exported or only calls itself still
counts as unread.

It also fails on an import that a ``src/`` module never reads, since CI
installs no linter.

Both checks use the standard library's ``ast`` only.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where a read counts: the program, its scripts, examples and benchmark,
#: and the script that regenerates the goldens.  The unit tests do not.
_READERS = ("src", "scripts", "examples", "perfbench",
            os.path.join("tests", "golden", "regenerate.py"))

#: The executable specification of the packed operations: a test oracle,
#: kept verbatim whether or not ``src/`` reads each helper.
_ORACLE = os.path.join("src", "repro", "isa", "simdops_ref.py")

#: ``BaseHTTPRequestHandler`` calls these by name.
_HANDLER_HOOKS = {"do_GET", "do_POST", "log_message"}

#: Unread on purpose, each for its reason.
ALLOWLIST = {
    # A register file's whole state as a list: the block-emission and
    # builder tests compare it between the object and the block paths.
    "snapshot",
    # A packed register read as lanes: the view the builder tests assert on.
    "read_lanes",
    # Where a trace lives on disk: the tests find entries to corrupt by it.
    "path_for",
    # The client call for the service's ``/healthz`` endpoint.
    "health",
    # The paper's per-ISA instruction counts (67 / 88 / 121).
    "catalog_summary",
    # The paper's S = R * IPC * OPI identity, which the tests assert.
    "speedup_decomposition",
}


def _python_files(*roots: str) -> Iterator[str]:
    for root in roots:
        path = os.path.join(_ROOT, root)
        if os.path.isfile(path):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), _ROOT)


def _parse(relpath: str) -> ast.Module:
    with open(os.path.join(_ROOT, relpath), encoding="utf-8") as f:
        return ast.parse(f.read(), filename=relpath)


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Module-level functions, classes and constants, and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _reads(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _exempt() -> Set[str]:
    from repro.isa.catalog import builder_operations

    names = set(_HANDLER_HOOKS) | ALLOWLIST
    for isa in ("scalar", "mmx", "mdmx", "mom"):
        names.update(builder_operations(isa))
    return names


def unread(definers: Dict[str, ast.Module], readers: Dict[str, ast.Module],
           exempt: Set[str]) -> List[str]:
    """``file:line: name`` for each definition in ``definers`` that no
    module in ``readers`` reads outside the definition itself."""
    reads: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for relpath, tree in readers.items():
        for name, line in _reads(tree):
            reads[name].append((relpath, line))
    found = []
    for relpath, tree in definers.items():
        for name, node in _definitions(tree):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(path != relpath or line not in inside
                       for path, line in reads[name]):
                found.append(f"{relpath}:{node.lineno}: {name}")
    return found


def unread_definitions() -> List[str]:
    """``file:line: name`` for each ``src/repro`` definition nothing reads."""
    readers = {path: _parse(path) for path in _python_files(*_READERS)}
    definers = {path: tree for path, tree in readers.items()
                if path.startswith(os.path.join("src", "repro", ""))
                and path != _ORACLE}
    return unread(definers, readers, _exempt())


def _exported(tree: ast.Module) -> Set[str]:
    """The names a module's ``__all__`` lists: an import it re-exports."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports() -> List[str]:
    """``file:line: name`` for each import its module neither reads nor
    re-exports through ``__all__``."""
    unused = []
    for relpath in _python_files(os.path.join("src", "repro")):
        if relpath == _ORACLE or os.path.basename(relpath) == "__init__.py":
            continue
        tree = _parse(relpath)
        read = {name for name, _ in _reads(tree)} | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{relpath}:{node.lineno}: {bound}")
    return unused


def test_every_definition_is_read_by_code_that_runs():
    unread = unread_definitions()
    assert not unread, (
        "read by nothing in src/, scripts/, examples/, perfbench/ or "
        "tests/golden/regenerate.py (delete it, or add it to ALLOWLIST "
        "with its reason):\n" + "\n".join(unread))


def test_no_unused_imports_in_src():
    unused = unused_imports()
    assert not unused, "imported but never read:\n" + "\n".join(unused)


@pytest.mark.parametrize("source, expected", [
    ("def used():\n    pass\n\nused()\n", []),
    ("def dead():\n    pass\n", ["m.py:1: dead"]),
    ("def recurse(n):\n    return recurse(n - 1)\n", ["m.py:1: recurse"]),
    ("__all__ = ['dead']\n\ndef dead():\n    pass\n", ["m.py:3: dead"]),
    ("from m import dead\n\ndef dead():\n    pass\n", ["m.py:3: dead"]),
    ("__getattr__ = lazy_exports(__name__, {'m': ['dead']})\n\n"
     "def dead():\n    pass\n", ["m.py:3: dead"]),
    ("class C:\n    def m(self):\n        pass\n\nC().m()\n", []),
    ("class C:\n    def m(self):\n        pass\n\nC()\n", ["m.py:2: m"]),
    ("LIMIT = 3\n", ["m.py:1: LIMIT"]),
    ("def do_GET(self):\n    pass\n", []),
])
def test_reads_exclude_own_body_imports_and_export_lists(source, expected):
    modules = {"m.py": ast.parse(source)}
    assert unread(modules, modules, _HANDLER_HOOKS) == expected
