"""Closures grown in place against the from-scratch algorithms they replace.

`subgroup_generated`, `reduce_generators`, normal closures and conjugate
chains grow one `_Closure` each; the oracles rebuild every subgroup from
the identity. Both must give the same members and the same generators, on
the corpus and on one larger table, `BIG`. The point-set product
`mul_points` that large closures, quotients and subgroup tables read must
equal the gathered right action, and no closure may form a right action
of the whole group.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import numpy as np
from conftest import CORPUS_SMALL, table_of
from oracles import (
    center,
    closure_from_identity,
    direct_product,
    milnor_chain_from_scratch,
    normal_closure_by_rounds,
    quotient_by_scalar_products,
    reduce_generators_reclosing,
    subgroup_table,
)

from solgrow.catalog import catalog
from solgrow.milnor import _pair_commutators, milnor_chain
from solgrow.soluble import _prime_extensions, normal_subgroups
from solgrow.table import (
    FiniteGroupTable,
    _Closure,
    commutator_subgroup,
    derived_length,
    derived_series,
    enumerate_group,
    normal_closure,
    quotient,
    reduce_generators,
    subgroup_generated,
    trivial_subgroup,
    whole_group,
)

BIG = "agl1(64) x c2"
NAMES = CORPUS_SMALL + [BIG]


@lru_cache(maxsize=None)
def _table(name):
    if name == BIG:
        return direct_product(table_of("agl1(64)"), table_of("c2"))
    return table_of(name)


def _fresh_table(name):
    """A table of its own, on which no product has been formed."""
    if name == BIG:
        return direct_product(table_of("agl1(64)"), table_of("c2"))
    return enumerate_group(catalog(name))


def _seed_sets(T):
    """A few seed lists: each generator alone, the generators, a spread of
    elements, and the generator commutators."""
    gens = list(T.generators)
    spread = list(range(1, T.n, max(1, T.n // 5)))
    out = [[g] for g in gens] + [gens, spread, spread[:2]]
    comms = _pair_commutators(T, tuple(gens))
    return out + ([comms] if comms else [])


def test_big_table_is_above_the_dense_limit():
    T = _table(BIG)
    assert T.n == 8064


@pytest.mark.parametrize("name", NAMES)
def test_subgroup_generated_matches_closure_from_identity(name):
    T = _table(name)
    for seeds in _seed_sets(T) + [[0, *T.generators, 0, *T.generators]]:
        H = subgroup_generated(T, seeds)
        assert H.members == tuple(sorted(closure_from_identity(T, seeds)))
        assert H.generators == tuple(dict.fromkeys(s for s in seeds if s != 0))


@pytest.mark.parametrize("name", NAMES)
def test_reduce_generators_matches_reclosing(name):
    T = _table(name)
    G = whole_group(T)
    subgroups = [G, commutator_subgroup(T, G, G)]
    subgroups += [subgroup_generated(T, seeds) for seeds in _seed_sets(T)]
    for H in subgroups:
        R = reduce_generators(T, H)
        assert R.members == H.members
        assert R.generators == reduce_generators_reclosing(T, H.members)


@pytest.mark.parametrize("name", NAMES)
def test_commutator_subgroup_and_normal_closure_match_rounds(name):
    T = _table(name)
    G = whole_group(T)
    D = commutator_subgroup(T, G, G)
    for A, B in [(G, G), (D, G), (D, D)]:
        joint = list(dict.fromkeys(g for g in A.generators + B.generators if g != 0))
        seeds = [T.comm(a, b) for a in A.generators for b in B.generators]
        want = normal_closure_by_rounds(T, seeds, joint)
        assert frozenset(commutator_subgroup(T, A, B).members) == want
    for seeds in _seed_sets(T):
        N = normal_closure(T, seeds)
        assert frozenset(N.members) == normal_closure_by_rounds(T, seeds, T.generators)
        # Only the seeds and conjugates that enlarged the closure are kept,
        # and they generate it.
        assert len(set(N.generators)) == len(N.generators)
        assert frozenset(subgroup_generated(T, N.generators).members) == frozenset(N.members)


@pytest.mark.parametrize("name", NAMES)
def test_milnor_chain_matches_levels_built_from_scratch(name):
    T = _table(name)
    for seeds in _seed_sets(T):
        chain = milnor_chain(T, seeds)
        ref = milnor_chain_from_scratch(T, list(dict.fromkeys(seeds)))
        assert chain.k == ref["k"]
        assert chain.witnesses == ref["witnesses"]
        assert chain.levels == ref["levels"]
        assert [(H.members, H.generators) for H in chain.subgroups] == [
            (H.members, H.generators) for H in ref["subgroups"]
        ]


@pytest.mark.parametrize("name", ["s4", "sl2(3)", BIG])
def test_adding_a_member_returns_false_and_changes_nothing(name):
    T = _table(name)
    C = _Closure(T)
    assert C.add(T.generators[0])
    assert not C.add(0)
    state = (bytes(C.seen), list(C.members), list(C.gens), C.order)
    for x in list(C.members):
        assert not C.add(x)
    assert (bytes(C.seen), list(C.members), list(C.gens), C.order) == state
    # A non-member enlarges it and is walked from every old member.
    outside = next((x for x in range(T.n) if not C.seen[x]), None)
    if outside is not None:
        assert C.add(outside)
        assert sorted(C.members) == sorted(closure_from_identity(T, [T.generators[0], outside]))


@pytest.mark.parametrize("name", NAMES)
def test_mul_points_equals_the_gathered_action(name):
    T = _fresh_table(name)
    n = T.n
    elements = sorted({0, *T.generators, *range(1, n, max(1, n // 7)), n - 1})
    point_sets = [
        np.arange(n, dtype=np.int32),
        np.arange(n - 1, -1, -3, dtype=np.int32),
        np.zeros(0, dtype=np.int32),
    ]
    for g in elements:
        # on a fresh table, each product walks g's geodesic
        products = [T.mul_points(xs, g) for xs in point_sets]
        action = T.right_action(g)
        for xs, got in zip(point_sets, products):
            assert got.dtype == np.int32
            assert got.tolist() == action[xs].tolist()
            assert T.mul_points(xs, g).tolist() == action[xs].tolist()
        some = point_sets[1][:50].tolist()
        m = T.point_map(g)
        assert [m[x] for x in some] == action[some].tolist()


def _adjoined_one_by_one(T, C, elements):
    """Adjoin each element to C, checking every enlarged closure against the
    closure from the identity; returns how each add walked ("points",
    "switch" when a point walk reached COSET_WALK_MIN, or "cosets")."""
    walks = []
    for g in elements:
        walked_cosets = isinstance(C.members, np.ndarray)
        if not C.add(g):
            continue
        switched = isinstance(C.members, np.ndarray)
        walks.append("cosets" if walked_cosets else "switch" if switched else "points")
        want = closure_from_identity(T, C.gens)
        assert C.order == len(want) == bytes(C.seen).count(1)
        # cosets are disjoint: no member is stored twice
        assert sorted(C.members) == sorted(want)
    return walks


@pytest.mark.parametrize("name", ["s4wrs2", "s3wrs3", "agl1(64)", BIG])
def test_closures_across_the_coset_switch_match_closure_from_identity(name):
    T = _table(name)
    # Members of the derived series from its foot up: the closure grows
    # a little at a time, walking points while it is small and cosets
    # once it holds COSET_WALK_MIN members.
    series = derived_series(T)
    up = [x for H in reversed(series) for x in H.members]
    walks = _adjoined_one_by_one(T, _Closure(T), up)
    assert walks[0] == "points" and "switch" in walks and "cosets" in walks


def _closure_results(T):
    """Closures, a quotient, a subgroup table and a round of prime
    extensions on T, as comparable values."""
    G = whole_group(T)
    D = commutator_subgroup(T, G, G)
    Z = center(T)
    chain = milnor_chain(T, [T.generators[0]])
    return (
        derived_length(T),
        D.mask,
        reduce_generators(T, D).generators,
        normal_closure(T, [T.generators[0]]).mask,
        [H.mask for H in chain.subgroups],
        quotient(T, Z).coset_of,
        subgroup_table(T, D).inv_idx.tolist(),
        # the extensions over D mark the cosets Dg they do not take
        [K.mask for K in _prime_extensions(T, [D])],
    )


@pytest.mark.parametrize("name", ["s4wrs2", BIG])
def test_no_closure_forms_a_whole_action(name, monkeypatch):
    want = _closure_results(_fresh_table(name))
    T = _fresh_table(name)  # a direct product is built from right actions

    def refuse(self, x):
        raise AssertionError("n-wide right action formed")

    monkeypatch.setattr(FiniteGroupTable, "right_action", refuse)
    assert _closure_results(T) == want


@pytest.mark.parametrize("name", CORPUS_SMALL + ["s4wrs2", "agl1(64)"])
def test_quotient_cosets_match_scalar_products(name):
    T = table_of(name)
    W = whole_group(T)
    # In a subgroup table a BFS parent may follow its child in index order
    # (as in the derived subgroups of s4, gammal1(16) and s4wrs2).
    for G in (T, subgroup_table(T, commutator_subgroup(T, W, W))):
        for N in normal_subgroups(G).subgroups + [trivial_subgroup(G)]:
            Q = quotient(G, N)
            assert (Q.coset_of, Q.reps) == quotient_by_scalar_products(G, N)
