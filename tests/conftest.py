"""Shared fixtures: cached group tables for the test corpus."""

from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import direct_product

from solgrow.catalog import catalog
from solgrow.table import FiniteGroupTable, enumerate_group

# Catalog groups of order <= 200, the core acceptance corpus.
CORPUS_SMALL = [
    "c2",
    "c3",
    "c6",
    "c12",
    "s3",
    "s4",
    "q8",
    "sl2(3)",
    "gl2(2)",
    "gl2(3)",
    "gl3(2)",
    "agl1(4)",
    "agl1(5)",
    "agl1(7)",
    "agl1(8)",
    "agl1(9)",
    "gammal1(8)",
    "gammal1(16)",
    "gammal1(27)",
    "gl1(3)wrs2",
    "c2wrc2",
    "s3wrs2",
    "f3^2:q8",
    "f2^3:c7",
    "s4tower(1)",
]

# Soluble members (everything except GL3(2), which is simple nonabelian).
CORPUS_SOLUBLE = [name for name in CORPUS_SMALL if name != "gl3(2)"]


@lru_cache(maxsize=None)
def table_of(name: str) -> FiniteGroupTable:
    return enumerate_group(catalog(name))


@lru_cache(maxsize=None)
def square_of(name: str) -> FiniteGroupTable:
    T = table_of(name)
    return direct_product(T, T)


@pytest.fixture(scope="session")
def corpus_tables() -> dict[str, FiniteGroupTable]:
    return {name: table_of(name) for name in CORPUS_SMALL}


@pytest.fixture(scope="session")
def soluble_tables() -> dict[str, FiniteGroupTable]:
    return {name: table_of(name) for name in CORPUS_SOLUBLE}
