"""The benchmark tracer wraps solgrow from outside; its targets must exist.

`perfbench/tracer.py` names the functions it wraps and reads
`FiniteGroupTable._rows`. A rename in `src/` fails here, not only in a
traced benchmark run. The tracer imports nothing from solgrow at import
time, so importing it here is read-only.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from solgrow.catalog import catalog
from solgrow.table import enumerate_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_target_resolves():
    for module_name, attr, _counter, _before in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)
    for module_name in tracer.LAZY_MODULES:
        importlib.import_module(module_name)


def test_fresh_table_has_rows_attribute():
    T = enumerate_group(catalog("s4"))
    assert hasattr(T, "_rows")
    assert tracer._was_sparse((T,), {}) in (True, False)


def test_ensure_dense_builds_nothing():
    # No table keeps dense rows; the tracer still wraps `ensure_dense`.
    assert enumerate_group(catalog("s4")).ensure_dense() is False
