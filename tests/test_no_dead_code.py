"""Every function, class, method and module-level name in `src/solgrow`
is used somewhere.

A definition counts as used when its name is read (as a name, an
attribute or an import) anywhere in `src/`, `tests/` or `perfbench/`.
Its own `def` or `class` line or assignment is not a read (no store is),
and neither is its entry in the lazy-export table of
`solgrow/__init__.py`, which holds names as strings. Dunders are called
by Python itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "solgrow"

# Definitions reached only by reflection, through a string or the import
# system. None is at present: `_Package` is read where `solgrow/__init__.py`
# assigns it to the package module's `__class__`.
REFLECTED: frozenset[str] = frozenset()


def _trees():
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _read(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_definition_in_src_is_read_somewhere():
    defined, read = {}, set()
    for path, tree in _trees():
        read |= _read(tree)
        if path.parent == SRC:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            for node in tree.body:  # module-level assignments
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, f"{path.name}:{node.lineno}")
    unread = {
        name: where
        for name, where in defined.items()
        if name not in read | REFLECTED and not (name.startswith("__") and name.endswith("__"))
    }
    assert unread == {}
