"""Output validity must not depend on `assert`, which `python -O` strips.

Checks in `src/solgrow` raise a `SolgrowError` instead. The only asserts
left narrow a type for readers and checkers, and say so in a comment.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solgrow"


def test_only_commented_type_narrowing_asserts_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assert):
                found.append((path.name, "# type narrowing" in lines[node.lineno - 1]))
    assert found == [("growth.py", True), ("growth.py", True)]
