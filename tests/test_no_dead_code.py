"""Every function, class, method and module-level name in `src/solgrow`
is used by the program, not only by its tests.

A definition counts as used when its name is read (as a name, an
attribute or an import) anywhere in `src/` or `perfbench/`, or names a
function the benchmark tracer wraps (an attribute path of
`perfbench/tracer.py`'s `TARGETS`, held as strings); a read in `tests/`
does not count. A method counts only when it is read as an attribute,
since a bare name of the same spelling (a local, say) cannot reach it.
Its own `def` or `class` line or assignment is not a read (no store is),
and neither is its entry in the lazy-export table of
`solgrow/__init__.py`, which holds names as strings. Dunders are called
by Python itself.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "solgrow"

sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

# Definitions that only tests read today, each with the reason it stays.
# (`FiniteGroupTable.ensure_dense` and `soluble_subgroups` need no entry:
# the tracer wraps them by name, so its `TARGETS` read them.)
KEEP = {
    "validate": "ModifiedSeries.validate: `mu` is to recheck its witness series before emitting it",
    "to_leaf_perm": "TreeAuto.to_leaf_perm: to give finite-depth tree automorphisms a row codec",
}


def _trees():
    for top in ("src", "perfbench"):
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


def _unread() -> dict[str, str]:
    """name -> where, for each definition in `src/solgrow` nothing reads."""
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
    for _module, attr, _counter, _before in tracer.TARGETS:
        read.update(attr.split("."))
        read_as_attribute.update(attr.split("."))
    return {
        name: where
        for kind, seen in ((defined, read), (methods, read_as_attribute))
        for name, where in kind.items()
        if name not in seen and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_in_src_is_read_somewhere():
    assert {name: where for name, where in _unread().items() if name not in KEEP} == {}


def test_every_kept_definition_is_still_unread():
    # a kept name that the program comes to read leaves the keep-list
    assert sorted(name for name in _unread() if name in KEEP) == sorted(KEEP)
