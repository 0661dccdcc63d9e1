"""Normal lattices, chief series, self-centralizing rank, supersolubility."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import CORPUS_SOLUBLE, square_of, table_of
from oracles import (
    center,
    deep_derived_term_is_nilpotent,
    direct_product,
    minimal_over,
    naive_is_normal,
    naive_self_centralizing,
    subgroup_family_is_extension_closed,
)

import solgrow.soluble as soluble
from solgrow.catalog import catalog
from solgrow.cli import main
from solgrow.errors import CapExceeded, InvariantViolated, NotSoluble, TrivialGroup
from solgrow.soluble import (
    _is_self_centralizing,
    analyze_record,
    chief_series,
    is_supersoluble,
    minimal_normal_subgroups,
    normal_subgroups,
    normal_subgroups_within,
    sc_chief_rank,
    soluble_subgroup_classes,
    soluble_subgroups,
)
from solgrow.specio import dump_genset
from solgrow.table import (
    FiniteGroupTable,
    conjugacy_classes,
    derived_series,
    quotient,
    subgroup_generated,
    whole_group,
)

# soluble corpus members small enough for full-lattice work in one test run
LATTICE_CORPUS = [n for n in CORPUS_SOLUBLE if n not in ("gl3(2)",)]


def test_normal_lattice_examples():
    assert [S.order for S in normal_subgroups(table_of("c3")).subgroups] == [1, 3]
    assert [S.order for S in normal_subgroups(table_of("s3")).subgroups] == [1, 3, 6]
    q8 = normal_subgroups(table_of("q8"))
    assert [S.order for S in q8.subgroups] == [1, 2, 4, 4, 4, 8]


@pytest.mark.parametrize("name", ["c6", "s3", "q8", "s4", "sl2(3)", "f3^2:q8", "c4xc4"])
def test_normal_lattice_complete(name):
    # the lattice of every subgroup H must be exactly the members of the
    # full subgroup list inside H and normal in H; in c4 x c4 every class
    # is a single element
    T = square_of("c4") if name == "c4xc4" else table_of(name)
    subs = soluble_subgroups(T)
    sets = [frozenset(S.members) for S in subs]
    normals = {S for S in sets if naive_is_normal(T, S)}
    assert {frozenset(S.members) for S in normal_subgroups(T).subgroups} == normals
    for H, whole in zip(subs, sets):
        inside = [S for S in sets if S <= whole]
        normals = {S for S in inside if naive_is_normal(T, S, H.members)}
        assert {frozenset(S.members) for S in normal_subgroups_within(T, H).subgroups} == normals


@pytest.mark.parametrize("name", ["c6", "s3", "q8", "s4", "sl2(3)", "q8"])
def test_subgroup_enumeration_extension_closed(name):
    T = table_of(name)
    assert subgroup_family_is_extension_closed(T, soluble_subgroups(T))


# classical subgroup totals less the insoluble subgroups: Sym(5) has 156
# subgroups (less A5, S5), Sym(6) 1,455 (less 12 A5, 12 S5, A6, S6),
# GL_3(2) 179 (less itself); S4, SL_2(3) and GL_2(3) are soluble
_FULL_COUNTS = {"s4": 30, "sl2(3)": 15, "gl2(3)": 55, "s5": 154, "gl3(2)": 178, "s6": 1429}


def test_known_subgroup_counts():
    for name, count in _FULL_COUNTS.items():
        assert len(soluble_subgroups(table_of(name))) == count, name


def _digest(subs) -> str:
    return hashlib.sha256(repr([(S.members, S.generators) for S in subs]).encode()).hexdigest()


# sha256 of repr([(members, generators), ...]), recorded when each subgroup
# still had its own conjugation walk
_PINNED_DIGESTS = {
    "s5": "eae03b03170890edffbe247121ffba01769a75f389b4b720924b5bab5e8c1bdf",
    "gl3(2)": "c8c27af9b6746416e92100e865ecc89a530355cd09fd833a6fe44bf54ff9d114",
}


@pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
def test_subgroup_list_and_generators_pinned(name):
    assert _digest(soluble_subgroups(table_of(name))) == _PINNED_DIGESTS[name]


# sha256 of repr([(members, generators), ...]) of normal lattices, recorded
# when the lattice was still closed under pairwise element joins
_PINNED_LATTICE_DIGESTS = {
    "agl1(64)": "9024437f63add318e8b1ec0c2a2aab5cc69300d0f97fab602d6c31a207e4c397",
    "s4wrs2": "1690d04d416eb4fd572a9ba4d4b66ee3c974e8801083661a6f89052f71cc5fa1",
    "s3wrs3": "3b2453585c23ce3e5601c7e684e570e3eff07e5926abf19831accc0b88515d89",
}

# the same for normal_subgroups_within(T, H) on each derived-series term
# H of s4wrs2, from the whole group down to the trivial subgroup
_PINNED_S4WRS2_DERIVED_DIGESTS = [
    "1690d04d416eb4fd572a9ba4d4b66ee3c974e8801083661a6f89052f71cc5fa1",
    "53b7f1af4de674d6658e396fc2569d26d4dcea20ed95feaaa4416749cfd7cc4a",
    "25ba0a657fe06c3f8234b5c8b3d0e89e39bfe3f460db98c9bb48e808049d6861",
    "2b3733a2eac30012a9b808fdb36654721830f86822ec2699ab2a0a4a736394f7",
    "367d5052b11809bd2bf74b9e45d7be98112a302f4975e17201d62aedaafe0c46",
]


@pytest.mark.parametrize("name", sorted(_PINNED_LATTICE_DIGESTS))
def test_normal_lattice_and_generators_pinned(name):
    lattice = normal_subgroups(table_of(name))
    assert _digest(lattice.subgroups) == _PINNED_LATTICE_DIGESTS[name]


def test_normal_lattices_within_derived_terms_pinned():
    T = table_of("s4wrs2")
    digests = [_digest(normal_subgroups_within(T, D).subgroups) for D in derived_series(T)]
    assert digests == _PINNED_S4WRS2_DERIVED_DIGESTS


@pytest.mark.parametrize("term", [1, 2, 3])
def test_lattice_within_a_proper_subgroup_walks_its_points_alone(term, monkeypatch):
    T = table_of("s4wrs2")
    H = derived_series(T)[term]
    want = _digest(normal_subgroups_within(T, H).subgroups), conjugacy_classes(T, H)
    walked, mul_points = [], FiniteGroupTable.mul_points

    def spy(self, xs, g):
        walked.append(len(xs))
        return mul_points(self, xs, g)

    def refuse(self, x):
        raise AssertionError("n-wide action formed")

    monkeypatch.setattr(FiniteGroupTable, "mul_points", spy)
    monkeypatch.setattr(FiniteGroupTable, "right_action", refuse)
    monkeypatch.setattr(FiniteGroupTable, "conjugation_action", refuse)
    assert (_digest(normal_subgroups_within(T, H).subgroups), conjugacy_classes(T, H)) == want
    assert walked and max(walked) <= H.order < T.n


def _count_conjugates(monkeypatch) -> list[int]:
    calls: list[int] = []
    walk = FiniteGroupTable.conjugates

    def counted(self, xs):
        calls.append(len(xs))
        return walk(self, xs)

    monkeypatch.setattr(FiniteGroupTable, "conjugates", counted)
    return calls


def _prime_factor_count(n: int) -> int:
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count


def test_one_conjugation_walk_per_round(monkeypatch):
    T = table_of("s5")
    calls = _count_conjugates(monkeypatch)
    subs = soluble_subgroups(T)
    # round k discovers the subgroups whose order has k prime factors
    # (with multiplicity); one more round finds nothing new
    rounds = 1 + max(_prime_factor_count(S.order) for S in subs)
    assert rounds == 5
    assert len(calls) <= rounds


def test_small_conjugation_blocks_give_the_same_list(monkeypatch):
    T = table_of("s5")
    calls = _count_conjugates(monkeypatch)
    # walks of at most four generators, the most any subgroup here has (S4)
    monkeypatch.setattr(soluble, "CONJ_BLOCK_ENTRIES", 4 * T.n)
    subs = soluble_subgroups(T)
    assert max(calls) <= 4 and len(calls) > 5
    assert _digest(subs) == _PINNED_DIGESTS["s5"]


@pytest.mark.parametrize("name", sorted(_FULL_COUNTS))
def test_subgroup_classes_partition_the_full_list(name):
    # the classes of the representatives, each taken as the conjugates by
    # every element, are disjoint and cover the full list exactly
    T = table_of(name)
    full = {S.mask for S in soluble_subgroups(T)}
    reps = soluble_subgroup_classes(T)
    assert reps == sorted(reps, key=lambda S: (S.order, S.members))
    by_generator = [T.conjugation_action(g) for g in T.generators]
    every = np.array([T.conjugation_action(g) for g in range(T.n)])
    union: set[bytes] = set()
    for S in reps:
        assert subgroup_generated(T, S.generators).mask == S.mask
        cls = {row.tobytes() for row in S.flags[every]}
        assert all(np.frombuffer(m, bool)[c].tobytes() in cls for m in cls for c in by_generator)
        assert union.isdisjoint(cls)
        union |= cls
    assert union == full and len(full) == _FULL_COUNTS[name]


def test_subgroup_classes_share_the_enumeration_cap(monkeypatch):
    T = table_of("s4")
    monkeypatch.setattr(soluble, "SUBGROUP_ENUM_CAP", T.n - 1)
    messages = []
    for enumerate_subgroups in (soluble_subgroups, soluble_subgroup_classes):
        with pytest.raises(CapExceeded) as exc:
            enumerate_subgroups(T)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_one_atom_walk_per_power_class(monkeypatch):
    # c2048 has 2,047 nontrivial classes but one power class per nontrivial
    # subgroup, so 11 atoms are walked
    T = table_of("c2048")
    starts: list[list[int]] = []
    walk = soluble._grow_classes

    def counted(classes, class_of, start, row):
        starts.append(list(start))
        return walk(classes, class_of, start, row)

    monkeypatch.setattr(soluble, "_grow_classes", counted)
    lattice = normal_subgroups(T)
    assert [S.order for S in lattice.subgroups] == [2**i for i in range(12)]
    assert sum(start == [0] for start in starts) <= 11


def test_minimal_normal_subgroups():
    assert [S.order for S in minimal_normal_subgroups(table_of("c3"))] == [3]
    assert [S.order for S in minimal_normal_subgroups(table_of("s3"))] == [3]
    q8_mins = minimal_normal_subgroups(table_of("q8"))
    assert [S.order for S in q8_mins] == [2]


def test_chief_series_c6():
    recs = chief_series(table_of("c6"))
    assert sorted((r.p, r.rank) for r in recs) == [(2, 1), (3, 1)]


def test_chief_series_s4():
    recs = chief_series(table_of("s4"))
    assert [r.order for r in recs] == [4, 3, 2]
    assert [(r.p, r.rank) for r in recs] == [(2, 2), (3, 1), (2, 1)]
    # every factor here is self-centralizing, including the top C2:
    # the centralizer of G/N in the abelian quotient G/N is everything.
    assert [r.self_centralizing for r in recs] == [True, True, True]


def test_chief_series_f9_q8():
    recs = chief_series(table_of("f3^2:q8"))
    assert recs[0].order == 9 and recs[0].rank == 2 and recs[0].self_centralizing


def test_chief_series_insoluble_rejected():
    with pytest.raises(NotSoluble):
        chief_series(table_of("gl3(2)"))


@pytest.mark.parametrize("name", ["c6", "s4", "sl2(3)", "f3^2:q8", "s3wrs2"])
def test_jordan_hoelder_invariance(name):
    T = table_of(name)
    lat = normal_subgroups(T)
    first = sorted((r.p, r.rank) for r in chief_series(T, lat))
    second = sorted((r.p, r.rank) for r in chief_series(T, lat, reverse_tiebreak=True))
    assert first == second


def test_sc_chief_rank_examples():
    assert sc_chief_rank(table_of("c6")) == 1
    assert sc_chief_rank(table_of("c12")) == 1
    assert sc_chief_rank(table_of("q8")) == 1
    assert sc_chief_rank(table_of("s4")) == 2
    assert sc_chief_rank(table_of("f3^2:q8")) == 2


def test_sc_chief_rank_guards():
    T = table_of("gl3(2)")
    with pytest.raises(NotSoluble):
        sc_chief_rank(T)
    trivial = quotient(table_of("c2"), whole_group(table_of("c2"))).table
    with pytest.raises(TrivialGroup):
        sc_chief_rank(trivial)


@pytest.mark.parametrize("name", [n for n in CORPUS_SOLUBLE])
def test_sc_rank_positive_everywhere(name):
    assert sc_chief_rank(table_of(name)) >= 1


def test_supersoluble_examples():
    assert is_supersoluble(table_of("c12"))
    assert is_supersoluble(table_of("s3"))
    assert not is_supersoluble(table_of("s4"))
    assert not is_supersoluble(table_of("f3^2:q8"))


def test_supersoluble_cross_check_raises(monkeypatch, tmp_path):
    # A rank that disagrees with the chief series is an internal error
    # (exit 3), raised rather than asserted so that python -O keeps it.
    T = table_of("s3")
    with pytest.raises(InvariantViolated):
        is_supersoluble(T, rank=2)
    monkeypatch.setattr(soluble, "sc_chief_rank", lambda *args, **kwargs: 2)
    with pytest.raises(InvariantViolated):
        is_supersoluble(T)
    with pytest.raises(InvariantViolated):
        analyze_record(T)
    spec = tmp_path / "s3.json"
    dump_genset(catalog("s3"), str(spec))
    assert main(["analyze", str(spec)]) == 3


def test_sc_chief_rank_without_factor_raises(monkeypatch):
    monkeypatch.setattr(soluble, "_selfc_factors", lambda T, lattice: iter(()))
    with pytest.raises(InvariantViolated):
        sc_chief_rank(table_of("s3"))


def test_passed_through_solubility_and_series_match():
    for name in ["s3", "s4", "f3^2:q8"]:
        T = table_of(name)
        lat = normal_subgroups(T)
        series = chief_series(T, lat, soluble=True)
        rank = sc_chief_rank(T, lat, soluble=True)
        assert series == chief_series(T) and rank == sc_chief_rank(T)
        assert is_supersoluble(T, lat, rank=rank, series=series) == is_supersoluble(T)
    with pytest.raises(NotSoluble):
        chief_series(table_of("s4"), soluble=False)


def _maximal_subgroups(T: FiniteGroupTable) -> list:
    """The maximal proper subgroups of a soluble T: the proper soluble
    subgroups that no larger proper one contains."""
    subs = [S for S in soluble_subgroups(T) if S.order < T.n]
    return [H for H in subs if not any(K.order > H.order and K.contains_set(H) for K in subs)]


@pytest.mark.parametrize("name", ["c2", "c6", "s3", "q8", "s4", "sl2(3)", "f3^2:q8"])
def test_sc_iff_maximal_index(name):
    # the orders of the self-centralizing chief factors over all quotients
    # are the indices of the maximal subgroups
    T = table_of(name)
    orders = {M.order // N.order for N, M in soluble._selfc_factors(T, normal_subgroups(T))}
    assert orders == {T.n // M.order for M in _maximal_subgroups(T)}


def test_maximal_subgroups_s4():
    maxes = sorted(S.order for S in _maximal_subgroups(table_of("s4")))
    assert maxes == [6, 6, 6, 6, 8, 8, 8, 12]


@pytest.mark.parametrize("name", CORPUS_SOLUBLE)
def test_srank_nilpotency_on_corpus(name):
    T = table_of(name)
    assert deep_derived_term_is_nilpotent(T, sc_chief_rank(T))


def test_srank_nilpotency_product():
    P = direct_product(table_of("sl2(3)"), table_of("f3^2:q8"))
    assert sc_chief_rank(P) <= 2 and deep_derived_term_is_nilpotent(P, 2)


def test_non_frattini_property():
    # every self-centralizing chief factor avoids the Frattini subgroup of
    # its quotient: M/N is not inside the intersection of maximals of G/N
    for name in ["s3", "s4", "q8", "sl2(3)", "c12", "f3^2:q8"]:
        T = table_of(name)
        for rec in chief_series(T):
            if not rec.self_centralizing:
                continue
            Q = quotient(T, rec.below)
            if Q.table.n > 500 or Q.table.n == 1:
                continue
            maxes = _maximal_subgroups(Q.table)
            frattini = set(range(Q.table.n))
            for M in maxes:
                frattini &= frozenset(M.members)
            image = {Q.coset_of[x] for x in rec.above.members}
            assert not image <= frattini


def test_quotient_table_analysis():
    # soluble analysis composes with quotients
    T = table_of("sl2(3)")
    lat = normal_subgroups(T)
    Z = next(S for S in lat.subgroups if S.order == 2)
    Q = quotient(T, Z).table
    assert sc_chief_rank(Q) == 2  # Alt(4) has the V4 factor
    assert not is_supersoluble(Q)


@pytest.mark.parametrize("name", ["s4", "sl2(3)", "f3^2:q8", "gl2(3)/centre"])
def test_is_self_centralizing_matches_definition(name):
    if name == "gl2(3)/centre":
        G = table_of("gl2(3)")
        T = quotient(G, center(G)).table
    else:
        T = table_of(name)
    lat = normal_subgroups(T)
    for i, N in enumerate(lat.subgroups):
        for j in lat.covers(i):
            M = lat.subgroups[j]
            assert _is_self_centralizing(T, N, M) == naive_self_centralizing(T, N, M)


def _c2_power(k: int) -> FiniteGroupTable:
    T = table_of("c2")
    for _ in range(k - 1):
        T = direct_product(T, table_of("c2"))
    return T


def _assert_covers_match_pairwise_scan(lat) -> None:
    for i, N in enumerate(lat.subgroups):
        assert [lat.subgroups[j] for j in lat.covers(i)] == minimal_over(lat.subgroups, N)


@pytest.mark.parametrize("name", LATTICE_CORPUS + ["c2^5"])
def test_covers_match_pairwise_scan(name):
    T = _c2_power(5) if name == "c2^5" else table_of(name)
    _assert_covers_match_pairwise_scan(normal_subgroups(T))


def test_covers_within_derived_terms_match_pairwise_scan():
    T = table_of("s4wrs2")
    for D in derived_series(T):
        _assert_covers_match_pairwise_scan(normal_subgroups_within(T, D))


@pytest.mark.parametrize("name", LATTICE_CORPUS)
def test_self_centralizing_factors_have_a_single_cover(name):
    # testing members with one cover only finds every self-centralizing
    # minimal normal subgroup of every quotient
    T = table_of(name)
    lat = normal_subgroups(T)
    subs = lat.subgroups
    naive = {
        (i, j)
        for i, N in enumerate(subs)
        for j in lat.covers(i)
        if naive_self_centralizing(T, N, subs[j])
    }
    assert all(len(lat.covers(i)) == 1 for i, _ in naive)
    found = {(subs.index(N), subs.index(M)) for N, M in soluble._selfc_factors(T, lat)}
    assert found == naive


def test_sc_chief_rank_tests_single_covers_only(monkeypatch):
    calls = []
    test = soluble._is_self_centralizing

    def counted(T, N, M):
        calls.append(N.order)
        return test(T, N, M)

    monkeypatch.setattr(soluble, "_is_self_centralizing", counted)
    assert sc_chief_rank(_c2_power(5)) == 1
    # of the 374 subspaces of F_2^5, only the 31 hyperplanes have a single
    # cover; testing every cover of every member makes 2,077 calls
    assert calls == [16] * 31
