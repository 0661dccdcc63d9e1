"""Every function, class, method and module-level name in `src/solgrow`
is used somewhere.

A definition counts as used when its name is read (as a name, an
attribute or an import) anywhere in `src/`, `tests/` or `perfbench/`; a
method counts only when it is read as an attribute, since a bare name of
the same spelling (a local, say) cannot reach it. Its own `def` or
`class` line or assignment is not a read (no store is),
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


def _read(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Names read bare or imported, and names read as attributes."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names, attributes


def test_every_definition_in_src_is_read_somewhere():
    # name -> where, for methods and for every other definition
    methods: dict[str, str] = {}
    defined: dict[str, str] = {}
    read: set[str] = set()
    read_as_attribute: set[str] = set()
    for path, tree in _trees():
        names, attributes = _read(tree)
        read |= names | attributes
        read_as_attribute |= attributes
        if path.parent == SRC:
            in_class = {
                id(f)
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    kind = methods if id(node) in in_class else defined
                    kind.setdefault(node.name, f"{path.name}:{node.lineno}")
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
        for kind, seen in ((defined, read), (methods, read_as_attribute))
        for name, where in kind.items()
        if name not in seen | REFLECTED and not (name.startswith("__") and name.endswith("__"))
    }
    assert unread == {}
