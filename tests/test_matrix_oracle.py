"""Matrix elements against sympy: determinants and inverses over F_p and Z.

sympy shares no code with solgrow's elimination, so it is an independent
oracle for which matrices are accepted and for their inverses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgrow.elements import MatFp, MatZ
from solgrow.errors import ParseError

sympy = pytest.importorskip("sympy")

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def _fp_matrices(draw):
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    # entries beyond [0, p) check the reduction as well
    entries = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=n * n, max_size=n * n))
    return n, p, entries


@_SETTINGS
@given(_fp_matrices())
def test_matfp_against_sympy(case):
    n, p, entries = case
    M = sympy.Matrix(n, n, entries)
    if M.det() % p == 0:
        with pytest.raises(ParseError):
            MatFp(n, p, entries)
        return
    g = MatFp(n, p, entries)
    assert g.entries == tuple(x % p for x in entries)
    assert g.inverse().entries == tuple(int(x) for x in M.inv_mod(p))
    assert g * g.inverse() == g.identity() == g.inverse() * g


@st.composite
def _unimodular(draw):
    """A product of elementary matrices: row additions, swaps and a sign."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            continue
        if draw(st.booleans()):
            k = draw(st.integers(-3, 3))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    if draw(st.booleans()):
        rows[0] = [-a for a in rows[0]]
    return n, rows


@_SETTINGS
@given(_unimodular())
def test_matz_inverse_against_sympy(case):
    n, rows = case
    g = MatZ(n, rows)
    want = sympy.Matrix(rows).inv()
    assert g.inverse().entries == tuple(int(x) for x in want)
    assert g * g.inverse() == g.identity()


@_SETTINGS
@given(_unimodular(), st.sampled_from([2, -2]))
def test_matz_determinant_two_rejected(case, d):
    n, rows = case
    rows = [[d * a for a in rows[0]]] + rows[1:]
    assert abs(sympy.Matrix(rows).det()) == 2
    with pytest.raises(ParseError, match="is not \\+-1"):
        MatZ(n, rows)
