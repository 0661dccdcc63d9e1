"""Wreath products, affine groups, monomial groups, direct products."""

from __future__ import annotations

import pytest

from conftest import table_of

from solgrow.catalog import catalog
from solgrow.constructions import (
    affine_semidirect,
    matrix_to_perm_gens,
    matrix_wreath,
    wreath_product,
)
from solgrow.elements import MatFp
from solgrow.errors import NotTransitive, UnknownName
from solgrow.fields import _idx_of, _vec_of, small_field, vector_actions
from solgrow.table import direct_product, enumerate_group, nilpotency_class


def test_c2_wr_c2():
    T = table_of("c2wrc2")
    assert T.n == 8
    assert nilpotency_class(T) == 2


def test_s3_wr_s2():
    T = table_of("s3wrs2")
    assert T.n == 72
    assert T.elements[0].degree == 6


@pytest.mark.parametrize(
    "a_name,b_name,b_points",
    [("s3", "s2", 2), ("c2", "s4", 4), ("s4", "s2", 2), ("c3", "c3", 3)],
)
def test_wreath_order_formula(a_name, b_name, b_points):
    A = table_of(a_name)
    B = table_of(b_name)
    W = enumerate_group(wreath_product(A, B))
    assert W.n == A.n**b_points * B.n


def test_wreath_not_transitive():
    intransitive = enumerate_group(
        catalog("s2")
    )  # acts on 2 points; extend to 3 by padding
    from solgrow.elements import GenSet, Perm

    pad = enumerate_group(GenSet([Perm([1, 0, 2])]))
    with pytest.raises(NotTransitive):
        wreath_product(table_of("s3"), pad)


def test_monomial_group():
    T = table_of("gl1(3)wrs2")
    assert T.n == 8
    first = T.elements[0]
    assert isinstance(first, MatFp) and first.n == 2 and first.p == 3


def test_matrix_wreath_order():
    W = enumerate_group(matrix_wreath(list(catalog("gl2(2)").elements), 2))
    assert W.n == 6**2 * 2


def test_affine_examples():
    agl5 = table_of("agl1(5)")
    assert agl5.n == 20
    trivial_part = enumerate_group(affine_semidirect(2, 3, []))
    assert trivial_part.n == 9
    assert nilpotency_class(trivial_part) == 1
    f9q8 = table_of("f3^2:q8")
    assert f9q8.n == 72


def test_affine_catalog_orders():
    assert table_of("agl1(4)").n == 12
    assert table_of("agl1(8)").n == 56
    assert table_of("agl1(9)").n == 72
    assert enumerate_group(catalog("agl2(3)")).n == 432
    assert table_of("f2^3:c7").n == 56


def test_direct_product_axioms():
    A = table_of("q8")
    B = table_of("s3")
    P = direct_product(A, B)
    assert P.n == 48
    assert P.inv_idx[0] == 0
    for x in range(0, P.n, 7):
        for y in range(0, P.n, 5):
            i, j = divmod(x, B.n)
            k, l = divmod(y, B.n)
            assert P.mul(x, y) == A.mul(i, k) * B.n + B.mul(j, l)


def test_matrix_to_perm_faithful():
    gens = catalog("sl2(3)")
    perm = enumerate_group(matrix_to_perm_gens(list(gens.elements)))
    assert perm.n == 24


@pytest.mark.parametrize("name", ["gl2(3)", "gammal1(16)", "gl1(3)wrs4", "gammal1(27)"])
def test_vector_actions_match_matrix_apply(name):
    mats = list(catalog(name).elements)
    n, p = mats[0].n, mats[0].p
    for M, images in zip(mats, vector_actions(mats, n, p)):
        assert images == [_idx_of(M.apply(_vec_of(i, n, p)), p) for i in range(p**n)]


def test_small_field_indexing_round_trips():
    F = small_field(3, 2)
    assert [F.index(a) for a in F.elements()] == list(range(F.q))
    assert F.elements()[5] == (2, 1)


def test_catalog_unknown():
    with pytest.raises(UnknownName):
        catalog("mystery")
    with pytest.raises(UnknownName):
        catalog("gammal1(12)")  # not a prime power
    with pytest.raises(UnknownName, match="^not a prime power$"):
        catalog("agl1(6)")
    with pytest.raises(UnknownName, match="^1 is not a prime power$"):
        catalog("agl1(1)")


def test_catalog_wreath_grammar():
    assert table_of("s2wrs4").n == 2**4 * 24
    W = enumerate_group(catalog("s2wragl1(5)"))
    assert W.n == 2**5 * 20


def test_gl32_order():
    assert table_of("gl3(2)").n == 168
