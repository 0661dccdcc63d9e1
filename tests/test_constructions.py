"""Wreath products, semilinear groups, affine groups, monomial groups, direct products."""

from __future__ import annotations

import re
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import table_of
from oracles import direct_product, matrix_apply, subgroup_table

from solgrow.catalog import catalog
from solgrow.constructions import (
    affine_semidirect,
    cyclic_gens,
    matrix_to_perm_gens,
    matrix_wreath,
    semilinear_table,
    sym_gens,
    wreath_product,
    wreath_table,
)
from solgrow.elements import GenSet, MatFp, Perm
from solgrow.errors import CapExceeded, NotTransitive, UnknownName
from solgrow.fields import _idx_of, _vec_of, small_field, vector_actions
from solgrow.smallcases import _CASES
from solgrow.table import commutator_subgroup, enumerate_group, nilpotency_class, whole_group


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


def _table_fields(T):
    """Every field of a table that its products, words and elements read."""
    return {
        "actions": T._actions,
        "rows": T.elements.rows,
        "word_length": np.asarray(T.word_length),
        "parent": np.asarray(T._parent),
        "parent_step": np.asarray(T._parent_step),
        "inverse": np.asarray(T.inv_idx),
        "levels": [(level.start, level.stop) for level in T._levels],
        "generators": T.generators,
        "step_refs": T.step_refs,
    }


def _assert_same_table(T, U):
    reference = _table_fields(U)
    for field, got in _table_fields(T).items():
        expected = reference[field]
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype and got.shape == expected.shape, field
            assert np.array_equal(got, expected), field
        else:
            assert got == expected, field


def _witness_factors(name):
    """The factor tables of a wreath witness's permutation model."""
    base, _, k = name.rpartition("wrs")
    A = enumerate_group(matrix_to_perm_gens(list(catalog(base).elements)))
    return A, enumerate_group(sym_gens(int(k)))


def _derived_subgroup(name):
    T = table_of(name)
    return subgroup_table(T, commutator_subgroup(T, whole_group(T), whole_group(T)))


_SWAP, _CYCLE = Perm([1, 0, 2]), Perm([1, 2, 0])
_WITNESS_WREATHS = sorted({w[0] for case in _CASES for w in case["witnesses"] if "wrs" in w[0]})
_WREATH_FACTORS = {
    **{name: (lambda name=name: _witness_factors(name)) for name in _WITNESS_WREATHS},
    "s4wrs2": lambda: (table_of("s4"), enumerate_group(catalog("s2"))),
    "s3wrs3": lambda: (table_of("s3"), table_of("s3")),
    # a regular top group: C3 on 3 points
    "s3wrc3": lambda: (table_of("s3"), enumerate_group(cyclic_gens(3))),
    # base generators (0 1), (0 1 2), (0 1) again: a repeated involution
    "repeated base": lambda: (enumerate_group(GenSet([_SWAP, _CYCLE, _SWAP])), table_of("s2")),
    # a base of two involutions
    "involution base": lambda: (enumerate_group(GenSet([_SWAP, Perm([0, 2, 1])])), table_of("s3")),
    # a base indexed by a subgroup table, its elements a list of objects
    "subgroup base": lambda: (_derived_subgroup("s4"), table_of("s2")),
}


@pytest.mark.parametrize("name", list(_WREATH_FACTORS))
def test_wreath_table_equals_enumeration(name):
    A, B = _WREATH_FACTORS[name]()
    W = wreath_table(A, B)
    _assert_same_table(W, enumerate_group(wreath_product(A, B)))
    assert W.n == A.n ** B.elements[0].degree * B.n
    if name in ("s4wrs2", "s3wrs3"):
        _assert_same_table(W, enumerate_group(catalog(name)))


def test_wreath_table_needs_a_transitive_top():
    A, pad = table_of("s3"), enumerate_group(GenSet([Perm([1, 0, 2])]))
    with pytest.raises(NotTransitive):
        wreath_table(A, pad)


def test_wreath_table_refuses_past_its_cap():
    # S4 wr S4 has 24^4 * 24 elements, past the default cap: refused from
    # the orders alone, with nothing built and no ball completed
    s4 = table_of("s4")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as caught:
            wreath_table(s4, s4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught.value.last_completed is None
    assert peak < 2**16
    # the cap is inclusive: S3 wr S2 has 72 elements
    assert wreath_table(table_of("s3"), table_of("s2"), cap=72).n == 72
    with pytest.raises(CapExceeded, match="cap of 71 elements"):
        wreath_table(table_of("s3"), table_of("s2"), cap=71)


_SEMILINEAR_WITNESSES = sorted(
    int(m.group(1))
    for m in {re.fullmatch(r"gammal1\((\d+)\)", w[0]) for case in _CASES for w in case["witnesses"]}
    if m
)


@pytest.mark.parametrize(
    "q",
    # k = 1 (one generator); k = 2 (phi its own inverse); larger k; witnesses
    sorted({3, 5, 7, 4, 9, 25, 49, 8, 16, 27, 32, 81, 125, *_SEMILINEAR_WITNESSES}),
)
def test_semilinear_table_equals_enumeration(q):
    S = semilinear_table(q)
    _assert_same_table(S, enumerate_group(catalog(f"gammal1({q})")))
    p, k = S.gen_set.elements[0].p, S.gen_set.elements[0].n
    assert p**k == q and S.n == (q - 1) * k


def test_semilinear_table_refuses_past_its_cap():
    # GammaL(1, 1024) has 1023 * 10 elements: refused from the order alone,
    # with nothing n-wide built and no ball completed; the cap is inclusive
    semilinear_table(4)  # fills the field and catalog caches before tracing
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="cap of 10229 elements") as caught:
            semilinear_table(1024, cap=10229)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught.value.last_completed is None
    assert peak < 2**16
    assert semilinear_table(1024, cap=10230).n == 10230
    assert semilinear_table(9, cap=16).n == 16
    with pytest.raises(CapExceeded, match="cap of 15 elements"):
        semilinear_table(9, cap=15)


_DERIVED = {
    "gammal1(64)": (lambda: semilinear_table(64), lambda: enumerate_group(catalog("gammal1(64)"))),
    "s3wrs3": (
        lambda: wreath_table(table_of("s3"), table_of("s3")),
        lambda: enumerate_group(catalog("s3wrs3")),
    ),
}


@pytest.mark.parametrize("name", list(_DERIVED))
def test_derived_rows_are_written_on_first_read(name):
    derive, enumerate_ = _DERIVED[name]
    T, E = derive(), enumerate_()
    write = T.elements._rows
    labels = weakref.ref(write.args[0])
    writes = []
    T.elements._rows = lambda write=write: writes.append(1) or write()
    del write
    assert len(T.elements) == T.n == E.n and T.gen_set is not None
    assert writes == []
    rows = T.elements.rows
    assert T.elements.rows is rows and writes == [1]
    assert labels() is None  # dropped with the function that wrote the rows
    assert np.array_equal(rows, E.elements.rows)
    probes = [E.elements[i] for i in (0, 1, E.n // 2, E.n - 1)]
    probes += [g * g for g in E.gen_set.elements] + [3, Perm([1, 0]), MatFp(2, 5, [[1, 1], [0, 1]])]
    # of the tables' kind and degree but not members: a 9-cycle across the
    # blocks, a transvection
    transvection = np.eye(6, dtype=int)
    transvection[0, 1] = 1
    probes += [Perm([*range(1, 9), 0]), MatFp(6, 2, transvection.tolist())]
    for g in probes:
        for bounds in ((), (1,), (1, E.n - 1)):
            try:
                expected = E.elements.index(g, *bounds)
            except ValueError:
                expected = None
                with pytest.raises(ValueError):
                    T.elements.index(g, *bounds)
            else:
                assert T.elements.index(g, *bounds) == expected


def _traced(build):
    """The bytes `build()` leaves held, and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T = build()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return T, held, peak


def _array_bytes(T):
    return sum(field.nbytes for field in _table_fields(T).values() if isinstance(field, np.ndarray))


def _rows_read(T):
    T.elements.rows
    return T


@pytest.mark.parametrize("name", ["gammal1(32)wrs2", "gammal1(8)wrs3"])
def test_wreath_table_memory(name):
    # Once its rows are read, the derived table holds the arrays the
    # enumerated one holds, and its peak, building and reading, is no
    # higher. Held bytes may differ by what the allocator keeps (free lists,
    # caches filled on a first call): a few KiB.
    A, B = _witness_factors(name)
    _rows_read(wreath_table(A, B))  # so that one-time allocations are not counted
    W, held, peak = _traced(lambda: _rows_read(wreath_table(A, B)))
    E, e_held, e_peak = _traced(lambda: enumerate_group(wreath_product(A, B)))
    arrays = _array_bytes(W)
    assert arrays == _array_bytes(E) and arrays < held and abs(held - e_held) < 2**14
    assert peak <= e_peak


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
        assert images == [_idx_of(matrix_apply(M, _vec_of(i, n, p)), p) for i in range(p**n)]


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
