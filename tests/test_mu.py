"""Exact cost arithmetic and the modified-length computations."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from mpmath import mp, mpf, log as mplog

from conftest import table_of, square_of
from oracles import direct_product, mu_law_violations

from solgrow.catalog import catalog
from solgrow.constructions import wreath_table
from solgrow.errors import InvariantViolated, NotSoluble
from solgrow.mu import (
    ABELIAN,
    CLASS2,
    ModifiedSeries,
    MuValue,
    mu_bruteforce,
    mu_fast,
)
from solgrow.table import (
    derived_length,
    enumerate_group,
    subgroup_generated,
    trivial_subgroup,
    whole_group,
)

LOG410 = math.log(10) / math.log(4)


def _mp_value(v: MuValue):
    return mpf(v.a) + mpf(v.b) * mplog(10) / mplog(4)


def test_muvalue_ordering_matches_30_digit_evaluation():
    mp.dps = 35
    vals = [MuValue(a, b) for a in range(0, 13) for b in range(0, 13)]
    for x in vals:
        for y in vals:
            exact = x.cmp(y)
            approx = _mp_value(x) - _mp_value(y)
            if exact == 0:
                assert (x.a, x.b) == (y.a, y.b)
            else:
                assert (approx > 0) == (exact > 0)


def test_muvalue_bound_comparison_matches_mpmath():
    mp.dps = 35
    cases = [
        # (value, c_num, c_den, r, s, n)
        (MuValue(2, 1), -5, 2, 3, 3, 2),
        (MuValue(3, 0), 0, 1, 0, 3, 4),
        (MuValue(1, 1), 2, 1, 1, 0, 1),
        (MuValue(0, 1), 2, 1, 0, 0, 1),
        (MuValue(4, 2), 1, 1, 2, 3, 5),
        (MuValue(2, 3), -5, 2, 3, 3, 8),
    ]
    for v, c_num, c_den, r, s, n in cases:
        bound = mpf(c_num) / c_den + r * mplog(10) / mplog(4) + s * mplog(n) / mplog(4)
        diff = _mp_value(v) - bound
        exact = v.cmp_bound(c_num, c_den, r, s, n)
        if abs(diff) < mpf(10) ** (-25):
            assert exact == 0
        else:
            assert (diff > 0) == (exact > 0)


def test_muvalue_exact_tie_at_n8():
    # 2 + 3*log4(10) equals 3*log4(8) + (-5/2 + 3*log4(10)) exactly
    assert MuValue(2, 3).cmp_bound(-5, 2, 3, 3, 8) == 0


def test_muvalue_arithmetic():
    assert MuValue(1, 1) + MuValue(2, 0) == MuValue(3, 1)
    assert MuValue(0, 1) > MuValue(1, 0)  # log4(10) > 1
    assert MuValue(1, 1) < MuValue(0, 2)  # 4*10 < 100
    assert MuValue(2, 0) > MuValue(0, 1)  # 16 > 10
    assert abs(MuValue(1, 1).value - (1 + LOG410)) < 1e-12


def test_mu_abelian():
    cost, series = mu_bruteforce(table_of("c6"))
    assert cost == MuValue(1, 0)
    assert [S.order for S in series.chain] == [6, 1]
    series.validate(table_of("c6"))


def test_mu_q8():
    T = table_of("q8")
    cost, series = mu_bruteforce(T)
    assert cost == MuValue(0, 1)
    assert series.kinds == ["class2"]
    series.validate(T)
    fast_cost, fast_series = mu_fast(T)
    assert fast_cost == cost
    fast_series.validate(T)


def test_bruteforce_keeps_the_first_of_equally_cheap_steps():
    # GammaL_1(27) has two cheapest first steps, to normal subgroups of
    # orders 13 and 26; the lattice lists 13 first and the later tie does
    # not replace it.
    T = table_of("gammal1(27)")
    cost, series = mu_bruteforce(T)
    assert cost == MuValue(2, 0)
    assert [S.order for S in series.chain] == [78, 13, 1]
    assert [S.order for S in mu_fast(T)[1].chain] == [78, 13, 1]


def test_validate_raises_on_each_bad_series():
    # raised rather than asserted, so that python -O keeps the checks
    T = table_of("s3")
    G, one = whole_group(T), trivial_subgroup(T)
    transposition = next(i for i in range(1, T.n) if T.mul(i, i) == 0)
    t = subgroup_generated(T, [transposition])
    cases = [
        (ModifiedSeries([G], []), "does not end at 1"),
        (ModifiedSeries([G, one], []), "one kind per step"),
        (ModifiedSeries([G, G, one], [ABELIAN, ABELIAN]), "not strictly descending"),
        (ModifiedSeries([G, t, one], [ABELIAN, ABELIAN]), "not normal"),
        (ModifiedSeries([G, one], [ABELIAN]), "nonabelian factor"),
        (ModifiedSeries([G, one], [CLASS2]), "not class exactly 2"),
    ]
    for series, message in cases:
        with pytest.raises(InvariantViolated, match=message):
            series.validate(T)


def test_bruteforce_raises_when_no_modified_step(monkeypatch):
    # a soluble head always has one (H' is normal and contains gamma_3);
    # an empty normal lattice must raise, not pass silently under python -O
    import solgrow.soluble

    monkeypatch.setattr(
        solgrow.soluble,
        "normal_subgroups_within",
        lambda T, H: solgrow.soluble.NormalLattice([H], [()]),
    )
    with pytest.raises(InvariantViolated, match="no modified step"):
        mu_bruteforce(table_of("s3"))


def test_mu_sl23():
    cost, _ = mu_bruteforce(table_of("sl2(3)"))
    assert cost == MuValue(1, 1)
    assert mu_fast(table_of("sl2(3)"))[0] == MuValue(1, 1)


def test_mu_s3_routes():
    # abelian route 1 + mu(C3) = 2 beats the class-2 route log4(10) + 1
    cost, series = mu_fast(table_of("s3"))
    assert cost == MuValue(2, 0)
    assert series.kinds == ["abelian", "abelian"]


def test_mu_s4():
    assert mu_fast(table_of("s4"))[0] == MuValue(3, 0)


def test_mu_f9_q8():
    # golden value fixed by the brute-force oracle
    T = table_of("f3^2:q8")
    brute, _ = mu_bruteforce(T)
    fast, series = mu_fast(T)
    assert brute == fast == MuValue(1, 1)
    assert series.kinds == ["class2", "abelian"]


def test_mu_gl23():
    T = table_of("gl2(3)")
    brute, _ = mu_bruteforce(T)
    assert brute == MuValue(2, 1)
    assert mu_fast(T)[0] == MuValue(2, 1)


@pytest.mark.parametrize("search", [mu_fast, mu_bruteforce])
def test_search_leaves_no_cycle_holding_the_table(search):
    # the table is freed by reference counting once the caller drops it,
    # not only when the cyclic collector next runs
    T = enumerate_group(catalog("s4"))
    held = weakref.ref(T)
    enabled = gc.isenabled()
    gc.disable()
    try:
        search(T)
        del T
        assert held() is None
    finally:
        if enabled:
            gc.enable()


def test_mu_not_soluble():
    with pytest.raises(NotSoluble):
        mu_fast(table_of("gl3(2)"))
    with pytest.raises(NotSoluble):
        mu_bruteforce(table_of("gl3(2)"))


@pytest.mark.parametrize(
    "name",
    ["c2", "c6", "s3", "s4", "q8", "sl2(3)", "gl2(3)", "f3^2:q8", "agl1(5)",
     "agl1(8)", "agl1(9)", "c2wrc2", "s3wrs2", "gammal1(16)", "f2^3:c7"],
)
def test_oracle_equivalence(name):
    T = table_of(name)
    brute, bseries = mu_bruteforce(T)
    fast, fseries = mu_fast(T)
    assert (brute.a, brute.b) == (fast.a, fast.b)
    bseries.validate(T)
    fseries.validate(T)


@pytest.mark.parametrize("name", ["c6", "s3", "s4", "q8", "sl2(3)", "f3^2:q8"])
def test_mu_below_derived_length(name):
    T = table_of(name)
    cost, _ = mu_fast(T)
    assert cost <= MuValue(derived_length(T), 0)


def test_mu_properties_small_corpus():
    tables = [table_of(n) for n in ["s3", "q8", "s4", "sl2(3)"]]
    pairs, violations = mu_law_violations(tables, [table_of("q8")])
    assert violations == []
    assert pairs > 50


def test_mu_extension_equality_sl23():
    # mu(SL2(3)) equals mu(Q8) + mu(SL2(3)/Q8) exactly
    from solgrow.table import commutator_subgroup, quotient

    T = table_of("sl2(3)")
    q8 = commutator_subgroup(T, whole_group(T), whole_group(T))
    assert q8.order == 8
    mu_n, _ = mu_fast(T, start=q8)
    mu_q, _ = mu_fast(quotient(T, q8).table)
    assert mu_n == MuValue(0, 1) and mu_q == MuValue(1, 0)
    assert mu_fast(T)[0] == mu_n + mu_q


def test_mu_power_examples():
    assert mu_fast(square_of("q8"))[0] == MuValue(0, 1)
    assert mu_fast(square_of("s3"))[0] == MuValue(2, 0)


def test_product_identity_sanity():
    # mu(G x 1) = mu(G)
    from solgrow.table import quotient

    T = table_of("sl2(3)")
    c2 = table_of("c2")
    trivial = quotient(c2, whole_group(c2)).table
    P = direct_product(T, trivial)
    assert P.n == T.n
    assert mu_fast(P)[0] == mu_fast(T)[0]


def test_product_counterexample():
    # SL2(3), the double cover of Alt(4) as 2x2 matrices over F_3, and the
    # 72-element affine group F_3^2 x| Q_8: the max law fails strictly for
    # their direct product, with the brute-force oracle agreeing on both
    G1, G2 = table_of("sl2(3)"), table_of("f3^2:q8")
    for G in (G1, G2):
        assert mu_fast(G)[0] == mu_bruteforce(G)[0] == MuValue(1, 1)
    assert mu_fast(direct_product(G1, G2))[0] == MuValue(3, 0) > MuValue(1, 1)


def test_wreath_bound_examples():
    # mu(A wr B) <= mu(A) + mu(B)
    c2, s2, s3 = table_of("c2"), table_of("s2"), table_of("s3")
    assert mu_fast(wreath_table(c2, c2))[0] == MuValue(0, 1)
    assert mu_fast(c2)[0] + mu_fast(c2)[0] == MuValue(2, 0)
    mu_w = mu_fast(wreath_table(s3, s2))[0]
    assert mu_fast(s3)[0] + mu_fast(s2)[0] == MuValue(3, 0)
    assert mu_w <= MuValue(3, 0)


def test_oracle_on_all_corpus_quotients():
    # the canonical-first-step assumption probed on every corpus quotient
    from conftest import CORPUS_SOLUBLE
    from solgrow.soluble import normal_subgroups
    from solgrow.table import quotient

    for name in CORPUS_SOLUBLE:
        T = table_of(name)
        if T.n > 200:
            continue
        for N in normal_subgroups(T).subgroups:
            Q = quotient(T, N).table
            assert mu_fast(Q)[0] == mu_bruteforce(Q)[0], (name, N.order)


def test_oracle_on_wreath_subgroups():
    from solgrow.soluble import soluble_subgroups

    T = table_of("s3wrs2")
    for S in soluble_subgroups(T):
        assert mu_fast(T, start=S)[0] == mu_bruteforce(T, start=S)[0], S.order


def test_oracle_on_random_product_subgroups():
    # mixed direct products beyond the fixed corpus, seeded sampling
    import random

    from solgrow.soluble import soluble_subgroups

    rng = random.Random(11)
    for a, b in [("q8", "s3"), ("s4", "c6")]:
        P = direct_product(table_of(a), table_of(b))
        subs = soluble_subgroups(P)
        picks = rng.sample(subs, min(25, len(subs)))
        for S in picks:
            assert mu_fast(P, start=S)[0] == mu_bruteforce(P, start=S)[0], (a, b, S.order)


def test_witness_series_validity_everywhere():
    for name in ["s4", "gl2(3)", "f3^2:q8", "agl1(9)"]:
        T = table_of(name)
        for fn in (mu_fast, mu_bruteforce):
            cost, series = fn(T)
            series.validate(T)
            assert series.cost == cost
