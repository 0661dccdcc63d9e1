"""Subgroup machinery against definitional brute-force oracles."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_SMALL, table_of
from oracles import (
    centralizer,
    naive_all_subgroups_tiny,
    naive_centralizer,
    naive_commutator_subgroup,
    naive_derived_series,
    naive_is_normal,
    naive_lower_central_series,
    naive_normal_closure,
    naive_subgroup,
)

from solgrow.elements import Perm
from solgrow.errors import NotNormal
from solgrow.soluble import soluble_subgroups
from solgrow.table import (
    commutator_subgroup,
    conjugacy_classes,
    derived_length,
    derived_series,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    quotient,
    Subgroup,
    subgroup_generated,
    whole_group,
)

SMALL = ["c6", "s3", "q8", "c2wrc2", "s4", "sl2(3)"]


def _perm_index(T, images):
    return T.elements.index(Perm(images))


def test_subgroup_generated_examples():
    T = table_of("s3")
    assert subgroup_generated(T, []).members == (0,)
    three_cycle = _perm_index(T, [1, 2, 0])
    assert subgroup_generated(T, [three_cycle]).order == 3
    sl = table_of("sl2(3)")
    order4 = [i for i in range(sl.n) if sl.order_of(i) == 4]
    a = order4[0]
    b = next(x for x in order4 if x not in frozenset(subgroup_generated(sl, [a]).members))
    S = subgroup_generated(sl, [a, b])
    assert S.order == 8


def test_subgroup_generated_idempotent_monotone():
    T = table_of("s4")
    a = _perm_index(T, [1, 0, 2, 3])
    b = _perm_index(T, [1, 2, 3, 0])
    S1 = subgroup_generated(T, [a])
    S2 = subgroup_generated(T, [a, b])
    assert frozenset(subgroup_generated(T, list(S1.members)).members) == frozenset(S1.members)
    assert frozenset(S2.members) >= frozenset(S1.members)


@pytest.mark.parametrize("name", SMALL)
def test_subgroup_matches_naive(name):
    T = table_of(name)
    seeds_sets = [[], [1], [1, 2], [min(3, T.n - 1)]]
    for seeds in seeds_sets:
        assert frozenset(subgroup_generated(T, seeds).members) == naive_subgroup(T, seeds)


def test_normal_closure_examples():
    T = table_of("s3")
    assert normal_closure(T, [0]).order == 1
    transposition = _perm_index(T, [1, 0, 2])
    assert normal_closure(T, [transposition]).order == 6
    s4 = table_of("s4")
    dt = _perm_index(s4, [1, 0, 3, 2])
    assert normal_closure(s4, [dt]).order == 4


@pytest.mark.parametrize("name", SMALL)
def test_normal_closure_matches_naive(name):
    T = table_of(name)
    for seed in range(1, min(T.n, 6)):
        assert frozenset(normal_closure(T, [seed]).members) == naive_normal_closure(T, [seed])


def test_normal_closure_contains_subgroup():
    T = table_of("s4")
    for seed in range(1, 10):
        S = subgroup_generated(T, [seed])
        N = normal_closure(T, [seed])
        assert frozenset(N.members) >= frozenset(S.members)
        from solgrow.table import is_normal

        assert (frozenset(N.members) == frozenset(S.members)) == is_normal(T, S)


def test_commutator_examples():
    s3 = table_of("s3")
    c3 = subgroup_generated(s3, [_perm_index(s3, [1, 2, 0])])
    assert commutator_subgroup(s3, c3, c3).order == 1  # abelian
    assert commutator_subgroup(s3, whole_group(s3), whole_group(s3)).order == 3
    sl = table_of("sl2(3)")
    assert commutator_subgroup(sl, whole_group(sl), whole_group(sl)).order == 8


@pytest.mark.parametrize("name", SMALL)
def test_derived_and_lcs_match_naive(name):
    T = table_of(name)
    ds = [frozenset(S.members) for S in derived_series(T)]
    assert ds == naive_derived_series(T)
    lcs = [frozenset(S.members) for S in lower_central_series(T)]
    assert lcs == naive_lower_central_series(T)


def test_series_examples():
    assert derived_length(table_of("c6")) == 1
    sl = table_of("sl2(3)")
    assert [S.order for S in derived_series(sl)] == [24, 8, 2, 1]
    q8 = table_of("q8")
    assert [S.order for S in lower_central_series(q8)] == [8, 2, 1]
    assert nilpotency_class(q8) == 2
    assert nilpotency_class(table_of("s4")) is None


def test_quotient_examples():
    s3 = table_of("s3")
    c3 = subgroup_generated(s3, [_perm_index(s3, [1, 2, 0])])
    Q = quotient(s3, c3)
    assert Q.table.n == 2
    trivialq = quotient(s3, whole_group(s3))
    assert trivialq.table.n == 1
    sl = table_of("sl2(3)")
    center = [i for i in range(sl.n) if i != 0 and sl.mul(i, i) == 0]
    Z = subgroup_generated(sl, center)
    Q2 = quotient(sl, Z)
    assert Q2.table.n == 12
    # Alt(4): nonabelian, no subgroup of order 6
    assert commutator_subgroup(Q2.table, whole_group(Q2.table), whole_group(Q2.table)).order > 1
    orders = {S.order for S in soluble_subgroups(Q2.table)}
    assert 6 not in orders
    assert orders == {1, 2, 3, 4, 12}


def test_quotient_axioms():
    T = table_of("s4")
    from solgrow.soluble import normal_subgroups

    for N in normal_subgroups(T).subgroups:
        Q = quotient(T, N)
        assert Q.table.n * N.order == T.n
        # coset map is a homomorphism
        for g in range(0, T.n, 5):
            for h in range(0, T.n, 7):
                assert Q.coset_of[T.mul(g, h)] == Q.table.mul(
                    Q.coset_of[g], Q.coset_of[h]
                )


def test_quotient_not_normal():
    T = table_of("s3")
    c2 = subgroup_generated(T, [_perm_index(T, [1, 0, 2])])
    with pytest.raises(NotNormal):
        quotient(T, c2)


def test_conjugacy_classes():
    s3 = table_of("s3")
    assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]
    c6 = table_of("c6")
    assert all(len(c) == 1 for c in conjugacy_classes(c6))
    assert sum(len(c) for c in conjugacy_classes(table_of("s4"))) == 24
    # classes of a subgroup under its own conjugation: Alt(4) in S4 has the
    # identity, the double transpositions and two classes of 3-cycles
    T = table_of("s4")
    G = whole_group(T)
    A4 = commutator_subgroup(T, G, G)
    classes = conjugacy_classes(T, A4)
    assert sorted(len(c) for c in classes) == [1, 3, 4, 4]
    assert sorted(x for c in classes for x in c) == list(A4.members)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    assert conjugacy_classes(T, G) == conjugacy_classes(T)


def test_conjugacy_classes_above_dense_limit():
    # S7 has one class per partition of 7 and 5,040 elements
    T = table_of("s7")
    assert T.n == 5040
    classes = conjugacy_classes(T)
    assert len(classes) == 15
    assert sorted(x for c in classes for x in c) == list(range(T.n))


def test_centralizer_examples():
    q8 = table_of("q8")
    i_gen = subgroup_generated(q8, [q8.generators[0]])
    C = centralizer(q8, i_gen)
    assert C.order == 4
    assert frozenset(C.members) == naive_centralizer(q8, frozenset(i_gen.members))
    c6 = table_of("c6")
    assert centralizer(c6, whole_group(c6)).order == 6


def test_tiny_subgroup_enumeration_complete():
    for name in ["c6", "q8", "c2wrc2"]:
        T = table_of(name)
        found = {frozenset(S.members) for S in soluble_subgroups(T)}
        assert found == naive_all_subgroups_tiny(T)


def test_normality_matches_naive():
    T = table_of("s4")
    from solgrow.table import is_normal

    for S in soluble_subgroups(T):
        assert is_normal(T, S) == naive_is_normal(T, frozenset(S.members))


@pytest.mark.parametrize("name", SMALL)
def test_commutator_matches_naive_definition(name):
    T = table_of(name)
    subs = soluble_subgroups(T)
    picks = [subs[0], subs[len(subs) // 2], subs[-1]]
    for A in picks:
        for B in picks:
            got = frozenset(commutator_subgroup(T, A, B).members)
            assert got == naive_commutator_subgroup(T, frozenset(A.members), frozenset(B.members))


@st.composite
def equal_size_masks(draw):
    """Distinct member masks over range(n), all with the same member count."""
    n = draw(st.integers(1, 40))
    size = draw(st.integers(1, n))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size, max_size=size), max_size=12))
    return list({bytes(x in S for x in range(n)) for S in sets})


@settings(max_examples=300, deadline=None)
@given(equal_size_masks())
def test_mask_key_orders_like_member_tuples(masks):
    subs = [Subgroup(m, ()) for m in masks]
    by_key = sorted(subs, key=lambda S: (-S.order, S.mask), reverse=True)
    assert by_key == sorted(subs, key=lambda S: (S.order, S.members))


@pytest.mark.parametrize("name", CORPUS_SMALL)
def test_membership_and_containment_match_sets(name):
    T = table_of(name)
    subs = soluble_subgroups(T)
    sets = [frozenset(S.members) for S in subs]
    for S, members in zip(subs, sets):
        assert [x in S for x in range(T.n)] == [x in members for x in range(T.n)]
        assert [S.contains_set(K) for K in subs] == [members >= other for other in sets]


def test_whole_group_holds_one_byte_per_element():
    T = table_of("agl1(64)")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = whole_group(T)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G.order == T.n == 4032
    assert held < 2 * T.n
