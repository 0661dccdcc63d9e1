"""Closures grown in place against the from-scratch algorithms they replace.

`subgroup_generated`, `reduce_generators`, normal closures and conjugate
chains grow one `_Closure` each; the oracles rebuild every subgroup from
the identity. Both must give the same members and the same generators, on
the corpus and on one table above DENSE_LIMIT, where no dense row is kept.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from conftest import CORPUS_SMALL, table_of
from oracles import (
    closure_from_identity,
    milnor_chain_from_scratch,
    normal_closure_by_rounds,
    reduce_generators_reclosing,
)

from solgrow.milnor import _pair_commutators, milnor_chain
from solgrow.table import (
    DENSE_LIMIT,
    _Closure,
    commutator_subgroup,
    direct_product,
    normal_closure,
    reduce_generators,
    subgroup_generated,
    whole_group,
)

BIG = "agl1(64) x c2"
NAMES = CORPUS_SMALL + [BIG]


@lru_cache(maxsize=None)
def _table(name):
    if name == BIG:
        return direct_product(table_of("agl1(64)"), table_of("c2"))
    return table_of(name)


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
    assert T.n == 8064 > DENSE_LIMIT
    assert T._rows is None


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
    state = (bytes(C.seen), list(C.members), [bytes(m) for m in C.maps])
    for x in list(C.members):
        assert not C.add(x)
    assert (bytes(C.seen), list(C.members), [bytes(m) for m in C.maps]) == state
    # A non-member enlarges it and is walked from every old member.
    outside = next((x for x in range(T.n) if not C.seen[x]), None)
    if outside is not None:
        assert C.add(outside)
        assert sorted(C.members) == sorted(closure_from_identity(T, [T.generators[0], outside]))
