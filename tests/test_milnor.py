"""Conjugate chains, quantitative bounds, and the certificate pipeline."""

from __future__ import annotations

import math

import pytest

from conftest import table_of
from oracles import center, chain_datapoint, gap_hypothesis_holds

import solgrow.milnor as milnor
import solgrow.soluble as soluble
from solgrow.catalog import catalog
from solgrow.elements import Perm
from solgrow.errors import InvariantViolated, NotSelfCentralizing
from solgrow.growth import growth_table
from solgrow.milnor import (
    _pair_commutators,
    _recurrence_constant,
    certify_growth_lower_bound,
    milnor_chain,
    subset_products,
)
from solgrow.mu import ModifiedSeries, mu_fast
from solgrow.soluble import minimal_normal_subgroups
from solgrow.table import (
    Subgroup,
    commutator_subgroup,
    enumerate_group,
    normal_closure,
    subgroup_generated,
    trivial_subgroup,
    whole_group,
)


def _perm_index(T, images):
    return T.elements.index(Perm(images))


def test_chain_normal_seed_stabilizes_immediately():
    q8 = table_of("q8")
    z = center(q8).members[1]
    ch = milnor_chain(q8, [z])
    assert ch.k == 0
    assert ch.generating_set == (z,)
    assert ch.subgroups[0].order == 2


def test_chain_s3_transposition():
    T = table_of("s3")
    y = _perm_index(T, [1, 0, 2])
    ch = milnor_chain(T, [y])
    assert ch.subgroups[ch.k].order == 6
    assert ch.closure_length <= ch.seed_length + 2 * ch.k
    assert len(ch.witnesses) == ch.k


def test_chain_s4_double_transposition():
    T = table_of("s4")
    y = _perm_index(T, [1, 0, 3, 2])
    ch = milnor_chain(T, [y])
    assert ch.subgroups[ch.k].order == 4
    assert ch.k <= 1


@pytest.mark.parametrize(
    "name,seed_index",
    [("s3", 1), ("s4", 1), ("q8", 1), ("sl2(3)", 2), ("f2^3:c7", 1), ("f3^2:q8", 3)],
)
def test_chain_soundness(name, seed_index):
    T = table_of(name)
    ch = milnor_chain(T, [seed_index])
    closure = normal_closure(T, [seed_index])
    assert frozenset(ch.subgroups[ch.k].members) == frozenset(closure.members)
    assert ch.closure_length <= ch.seed_length + 2 * ch.k
    distinct, gamma = chain_datapoint(ch)
    assert distinct and gamma >= 2**ch.k


# The chain checks below raise rather than assert, so that python -O
# keeps them; each test forces one of them to fail.


def test_chain_missing_the_closure_raises(monkeypatch):
    T = table_of("s4")
    y = _perm_index(T, [1, 0, 3, 2])
    monkeypatch.setattr(milnor, "normal_closure", lambda T, seeds: whole_group(T))
    with pytest.raises(InvariantViolated, match="missed the closure"):
        milnor_chain(T, [y])


def test_chain_closure_longer_than_bound_raises():
    # a private table, since its word lengths are overwritten: every
    # element but the identity and the seed is made 100 long
    T = enumerate_group(catalog("s3"))
    y = _perm_index(T, [1, 0, 2])
    by_len = T.elements_by_length()
    T.elements_by_length = lambda: by_len
    T.word_length = [T.word_length[i] if i in (0, y) else 100 for i in range(T.n)]
    with pytest.raises(InvariantViolated, match="longer than L"):
        milnor_chain(T, [y])


# The certificate's own checks raise rather than assert as well.


def test_coordinates_of_a_non_subgroup_raise():
    # two transpositions of S3 with the identity are not closed: the span
    # they generate over F_2 has four members, not three
    T = table_of("s3")
    members = {0, _perm_index(T, [1, 0, 2]), _perm_index(T, [0, 2, 1])}
    V = Subgroup(bytes(x in members for x in range(T.n)), ())
    with pytest.raises(InvariantViolated, match="not elementary abelian"):
        milnor._elementary_abelian_coords(T, V, 2)


@pytest.mark.parametrize("name, p", [("c4", 2), ("q8", 2), ("s3", 2), ("c9", 3)])
def test_coordinates_of_a_non_elementary_abelian_subgroup_raise(name, p):
    # each group taken whole is closed, so the greedy span covers it: the
    # order of the group, of a basis element or a commutator must give it away
    T = table_of(name)
    with pytest.raises(InvariantViolated, match="not elementary abelian"):
        milnor._elementary_abelian_coords(T, whole_group(T), p)


def test_wrong_cost_word_fails_its_check(monkeypatch):
    # a cost word that the series' abelian and class-2 steps do not multiply to
    cost_word = ModifiedSeries.cost_word
    monkeypatch.setattr(ModifiedSeries, "cost_word", lambda self: cost_word(self) + [4])
    with pytest.raises(InvariantViolated, match="certificate checks failed: cost_word_product$"):
        certify_growth_lower_bound(table_of("f2^3:c7"))


def test_false_check_raises(monkeypatch):
    # subset products that repeat the first in place of the last
    products = milnor.subset_products
    monkeypatch.setattr(milnor, "subset_products", lambda T, xs: (lambda p: p[:1] + p[:-1])(products(T, xs)))
    with pytest.raises(InvariantViolated, match="certificate checks failed: distinct_products$"):
        certify_growth_lower_bound(table_of("f2^3:c7"))


def test_socle_of_composite_order_raises(monkeypatch):
    # C6 is self-centralizing in itself; offered as the only minimal normal
    # subgroup, its order 6 is no prime power
    import solgrow.soluble

    monkeypatch.setattr(solgrow.soluble, "minimal_normal_subgroups", lambda T: [whole_group(T)])
    with pytest.raises(InvariantViolated, match="not a p-group"):
        certify_growth_lower_bound(table_of("c6"))


def test_lifted_word_longer_than_quotient_word_raises():
    # a private table, since its word lengths are overwritten: every
    # element but the identity is made 100 long, past any quotient word
    T = enumerate_group(catalog("sl2(3)"))
    Z = center(T)
    T.word_length = [0] + [100] * (T.n - 1)
    with pytest.raises(InvariantViolated, match="lifted word"):
        certify_growth_lower_bound(T, Z)


def test_distinct_products_k1():
    c2 = table_of("c2")
    ch = milnor_chain(c2, [1])
    distinct, gamma = chain_datapoint(ch)
    assert distinct and ch.k == 0 and gamma >= 1


def test_subset_products_independent_vectors():
    # three independent translations in F_2^3 x| C_7: 8 distinct products
    T = table_of("f2^3:c7")
    V = minimal_normal_subgroups(T)[0]
    assert V.order == 8
    basis = [v for v in V.members if v != 0][:3]
    sub = subgroup_generated(T, basis)
    if sub.order == 8:
        prods = subset_products(T, basis)
        assert len(set(prods)) == 8


def test_witness_degenerate_detected():
    T = table_of("s4")
    y = _perm_index(T, [1, 0, 3, 2])
    ch = milnor_chain(T, [y])
    if ch.k >= 1:
        bad = ch.__class__(
            table=T,
            seeds=ch.seeds,
            levels=ch.levels,
            subgroups=ch.subgroups,
            k=ch.k,
            witnesses=(0,) * ch.k,  # identity lies in every H_i
            seed_length=ch.seed_length,
            closure_length=ch.closure_length,
        )
        assert not chain_datapoint(bad)[0]


def _assert_quantitative_bounds_hold(ch, theta: float, C: float) -> float:
    """Checks gamma(n) <= exp(C n^theta) on the chain's table (theta < 1/2)
    and the bounds it gives, k <= B * max(L,1)^(theta/(1-theta)) and
    len(Z) <= L + 2B * max(L,1)^(theta/(1-theta)) with B = (5C)^(1/(1-2 theta));
    returns the slack of the bound on k."""
    assert gap_hypothesis_holds(ch.table.growth_counts(), theta, C)
    base = (5 * C) ** (1 / (1 - 2 * theta))
    grown = max(ch.seed_length, 1) ** (theta / (1 - theta))
    assert ch.k <= base * grown and ch.closure_length <= ch.seed_length + 2 * base * grown
    return base * grown - ch.k


def test_quantitative_vacuous_k0():
    q8 = table_of("q8")
    z = center(q8).members[1]
    ch = milnor_chain(q8, [z])
    _assert_quantitative_bounds_hold(ch, 1 / 3, 5.0)


def test_quantitative_s3():
    T = table_of("s3")
    ch = milnor_chain(T, [_perm_index(T, [1, 0, 2])])
    counts = T.growth_counts()
    c_needed = max(
        math.log(counts[n]) / n ** (1 / 3) for n in range(1, len(counts))
    )
    _assert_quantitative_bounds_hold(ch, 1 / 3, c_needed + 0.1)


@pytest.mark.parametrize("name", ["q8", "sl2(3)", "f3^2:q8", "agl1(8)"])
def test_quantitative_bounds_hold_with_fitted_constant(name):
    T = table_of(name)
    ch = milnor_chain(T, [1, T.generators[0]])
    counts = T.growth_counts()
    c_needed = max(
        math.log(counts[n]) / n ** (1 / 3) for n in range(1, len(counts))
    )
    _assert_quantitative_bounds_hold(ch, 1 / 3, max(1.0, c_needed))


def test_quantitative_hypothesis_violated():
    T = table_of("s4")
    assert not gap_hypothesis_holds(T.growth_counts(), 0.3, 1.0)


def test_quantitative_large_c_slack():
    T = table_of("s4")
    ch = milnor_chain(T, [_perm_index(T, [1, 0, 3, 2])])
    assert _assert_quantitative_bounds_hold(ch, 1 / 3, 50.0) > 100


def _derived_generating_sets(T):
    """Orders and generator lengths down the derived series: each next
    generating set is the stabilized conjugate set of the last one's pair
    commutators, whose chain must close on the derived subgroup. Returns
    the orders and the max lengths (none for a step with no commutator)."""
    X = tuple(dict.fromkeys(g for g in T.generators if g != 0))
    current = subgroup_generated(T, X)
    orders, lengths = [current.order], [max((T.word_length[x] for x in X), default=0)]
    while not current.is_trivial():
        Y = _pair_commutators(T, X)
        if not Y:
            orders.append(1)
            break
        chain = milnor_chain(T, Y)
        assert chain.subgroups[chain.k].mask == commutator_subgroup(T, current, current).mask
        X, current = chain.generating_set, chain.subgroups[chain.k]
        orders.append(current.order)
        lengths.append(chain.closure_length)
    return orders, lengths


def test_derived_generators_abelian():
    assert _derived_generating_sets(table_of("c6"))[0] == [6, 1]


def test_derived_generators_sl23():
    orders, lengths = _derived_generating_sets(table_of("sl2(3)"))
    assert orders == [24, 8, 2, 1]
    assert lengths[0] == 1
    # recurrence constant is the smallest C making each step bound hold
    c = _recurrence_constant(lengths, [4] * len(lengths))
    for i in range(1, len(lengths)):
        if lengths[i - 1] > 0:
            assert lengths[i] <= 4 * lengths[i - 1] + c * math.sqrt(lengths[i - 1]) + 1e-9


def test_derived_generators_s4():
    assert _derived_generating_sets(table_of("s4"))[0] == [24, 12, 4, 1]


def _canonical_chain(T):
    """mu_fast's optimal series of T, checked to end at T's first minimal
    normal subgroup V, which must be self-centralizing, and its cost word."""
    V = minimal_normal_subgroups(T)[0]
    assert soluble._is_self_centralizing(T, trivial_subgroup(T), V)
    _, series = mu_fast(T)
    assert series.chain[-2].mask == V.mask
    return series, series.cost_word()


def test_canonical_chain_agl15():
    T = table_of("agl1(5)")
    series, word = _canonical_chain(T)
    assert word == [4, 4]
    assert [S.order for S in series.chain] == [20, 5, 1]


def test_canonical_chain_f8c7():
    T = table_of("f2^3:c7")
    series, word = _canonical_chain(T)
    assert word == [4, 4]


def test_canonical_chain_f9q8():
    T = table_of("f3^2:q8")
    series, word = _canonical_chain(T)
    assert 10 in word
    assert word == [10, 4]
    prod = 1
    for a in word:
        prod *= a
    cost = series.cost
    assert prod == 4**cost.a * 10**cost.b


def test_canonical_chain_not_self_centralizing():
    # the only minimal normal subgroup of Q8 is its centre, which Q8 centralizes
    q8 = table_of("q8")
    assert [V.mask for V in minimal_normal_subgroups(q8)] == [center(q8).mask]
    with pytest.raises(NotSelfCentralizing):
        certify_growth_lower_bound(q8)


@pytest.mark.parametrize("name,rank,p", [("f2^3:c7", 3, 2), ("s4", 2, 2), ("f3^2:q8", 2, 3)])
def test_certificates(name, rank, p):
    T = table_of(name)
    cert = certify_growth_lower_bound(T)
    assert cert.rank == rank and cert.p == p
    assert all(cert.checks.values()) or cert.checks["gamma_source"]
    assert cert.checks["distinct_products"] and cert.checks["datapoint"]
    assert cert.bound == 2**rank
    # datapoint against an independently computed growth table
    gt = growth_table(T.gen_set, min(cert.radius, T.diameter()))
    assert gt.counts[-1] >= cert.bound
    # cost word consistency with the group's exact cost pair
    mu, _ = mu_fast(T)
    prod = 1
    for a in cert.cost_word:
        prod *= a
    assert prod == 4**mu.a * 10**mu.b
    # the canonical chain ends at the socle V
    assert cert.step_orders[-2] == p**rank


def test_certificate_measured_constants():
    # the reported constants are the smallest making the recurrences hold
    for name in ["f2^3:c7", "s4", "f3^2:q8"]:
        cert = certify_growth_lower_bound(table_of(name))
        L, a = cert.step_lengths, cert.cost_word
        for i in range(1, len(L)):
            if L[i - 1] > 0:
                assert L[i] <= a[i - 1] * L[i - 1] + cert.recurrence_constant * math.sqrt(
                    L[i - 1]
                ) + 1e-9
        for i in range(len(L)):
            prod = math.prod(a[: min(i + 1, len(a))])
            assert L[i] <= cert.chain_constant * prod + 1e-9
        assert cert.chain_constant > 0


def test_certificate_longer_canonical_chain():
    # four-step chain ending at the rank-2 socle of the affine plane group
    cert = certify_growth_lower_bound(table_of("agl2(3)"))
    assert cert.step_orders == [432, 216, 72, 9, 1]
    assert cert.cost_word == [4, 4, 10, 4]
    assert cert.rank == 2 and cert.p == 3
    assert cert.checks["datapoint"] and cert.checks["distinct_products"]


@pytest.mark.parametrize("name", ["s4", "f3^2:q8", "agl2(3)"])
def test_certificate_tests_the_socle_once(name, monkeypatch):
    # certify tests its single minimal normal V, then walks the chain to V
    # without testing V again
    T = table_of(name)
    (V,) = minimal_normal_subgroups(T)
    tested = []
    test = soluble._is_self_centralizing

    def counted(T, N, M):
        tested.append(M.mask)
        return test(T, N, M)

    monkeypatch.setattr(soluble, "_is_self_centralizing", counted)
    certify_growth_lower_bound(T)
    assert tested.count(V.mask) == 1


def test_certificate_requires_noncentral_socle():
    # the only minimal normal subgroup of C2 wr S4 is its center
    with pytest.raises(NotSelfCentralizing):
        certify_growth_lower_bound(table_of("s2wrs4"))


def test_certificate_degenerate_rank_one():
    T = table_of("c3")
    cert = certify_growth_lower_bound(T)
    assert cert.rank == 1 and cert.bound == 2
    assert cert.gamma_at_radius >= 2
    assert cert.vacuous in (True, False)


def test_certificate_with_transcript():
    cert = certify_growth_lower_bound(table_of("s4"), emit_transcript=True)
    assert cert.transcript is not None
    assert len(cert.transcript["products"]) == cert.bound
    assert len(set(cert.transcript["products"])) == cert.bound


def test_certificate_nontrivial_normal():
    # G = SL2(3), N = center: quotient Alt(4) has socle V4
    T = table_of("sl2(3)")
    Z = center(T)
    cert = certify_growth_lower_bound(T, Z)
    assert cert.normal_order == 2
    assert cert.rank == 2 and cert.p == 2
    assert cert.checks["datapoint"]


def test_certificate_bfs_capped_at_group_order(monkeypatch):
    # the independent BFS may need all of G, never more
    import solgrow.growth

    caps = []

    def recording_growth_table(X, R, **kwargs):
        caps.append(kwargs.get("max_elements"))
        return growth_table(X, R, **kwargs)

    monkeypatch.setattr(solgrow.growth, "growth_table", recording_growth_table)
    T = table_of("s4")
    cert = certify_growth_lower_bound(T)
    assert caps == [T.n]
    assert cert.checks["gamma_source"] == "independent_bfs"


def test_certificate_vacuous_flag():
    cert = certify_growth_lower_bound(table_of("s4"))
    assert cert.vacuous == (cert.radius >= table_of("s4").diameter())
