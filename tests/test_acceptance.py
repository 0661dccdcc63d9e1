"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as exact are compared with exact integer
arithmetic (cost pairs) or integer equality; fits use their stated windows
and tolerance intervals.
"""

from __future__ import annotations

import math
import time

from conftest import CORPUS_SOLUBLE, table_of, square_of
from oracles import (
    chain_datapoint,
    deep_derived_term_is_nilpotent,
    direct_product,
    mu_law_violations,
)

from solgrow.catalog import catalog
from solgrow.growth import growth_exponent_fit, growth_table
from solgrow.milnor import certify_growth_lower_bound, milnor_chain
from solgrow.mu import MuValue, mu_bruteforce, mu_fast
from solgrow.soluble import (
    chief_series,
    is_supersoluble,
    normal_subgroups,
    sc_chief_rank,
    soluble_subgroups,
)
from solgrow.table import derived_length, normal_closure


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


SUBGROUP_FAMILIES = ["s4", "sl2(3)", "gl2(3)", "f3^2:q8"]


def test_criterion_01_mu_oracle_equivalence():
    t0 = time.time()
    checked = 0
    # catalog groups of order <= 200
    for name in CORPUS_SOLUBLE:
        T = table_of(name)
        if T.n > 200:
            continue
        assert mu_fast(T)[0] == mu_bruteforce(T)[0], name
        checked += 1
    # every subgroup of the named families
    for name in SUBGROUP_FAMILIES:
        T = table_of(name)
        for S in soluble_subgroups(T):
            f = mu_fast(T, start=S)[0]
            b = mu_bruteforce(T, start=S)[0]
            assert (f.a, f.b) == (b.a, b.b), (name, S.order)
            checked += 1
    q8sq = square_of("q8")
    for S in soluble_subgroups(q8sq):
        assert mu_fast(q8sq, start=S)[0] == mu_bruteforce(q8sq, start=S)[0]
        checked += 1
    # sampled groups up to order 2000
    for name in ["s2wrs4", "agl2(3)"]:
        T = table_of(name)
        assert mu_fast(T)[0] == mu_bruteforce(T)[0], name
        checked += 1
    sl_sq = square_of("sl2(3)")
    assert mu_fast(sl_sq)[0] == mu_bruteforce(sl_sq)[0]
    checked += 1
    elapsed = time.time() - t0
    _report(
        1,
        elapsed < 300,
        f"mu_fast == mu_bruteforce on {checked} groups/subgroups in {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_02_paper_anchor_values():
    ok_q8 = mu_bruteforce(table_of("q8"))[0] == MuValue(0, 1)
    kinds_q8 = mu_bruteforce(table_of("q8"))[1].kinds == ["class2"]
    ok_sl = mu_bruteforce(table_of("sl2(3)"))[0] == MuValue(1, 1)
    delta_gl = derived_length(table_of("gl2(3)"))
    from solgrow.bounds import sigma_value

    ok_sigma = delta_gl == 4 == sigma_value(2)["exact"]
    ok = ok_q8 and kinds_q8 and ok_sl and ok_sigma
    _report(
        2,
        ok,
        "mu(Q8) = log4(10) via one class-2 step; mu(SL2(3)) = 1 + log4(10); "
        f"delta(GL2(3)) = {delta_gl} = sigma(2)",
    )


def test_criterion_03_product_counterexample():
    # G1 = SL2(3), the double cover of Alt(4) as 2x2 matrices over F_3, and
    # G2 = F_3^2 x| Q_8: mu(G1 x G2) > max(mu(G1), mu(G2)) strictly
    t0 = time.time()
    G1, G2 = table_of("sl2(3)"), table_of("f3^2:q8")
    mu1, mu2 = mu_fast(G1)[0], mu_fast(G2)[0]
    mup = mu_fast(direct_product(G1, G2))[0]
    ok = mu1 == mu2 == MuValue(1, 1) and mup > max(mu1, mu2)
    _report(
        3,
        ok,
        f"mu(G1 x G2) = ({mup.a},{mup.b}) > "
        f"1 + log4(10) strictly, exact pairs, {time.time() - t0:.1f}s",
    )


def test_criterion_04_mu_properties_lemma():
    tables = [table_of(n) for n in CORPUS_SOLUBLE if table_of(n).n <= 200]
    power_tables = [table_of("q8"), table_of("s3"), table_of("sl2(3)")]
    pairs, violations = mu_law_violations(tables, power_tables)
    ok = violations == []
    _report(
        4,
        ok,
        f"4-part lemma over {pairs} pairs, zero violations; "
        "mu(G^2) = mu(G) for Q8, S3, SL2(3)",
    )


def test_criterion_05_small_cases_suite():
    from solgrow.smallcases import verify_small_cases, verify_transitive_exhaustive

    rep = verify_small_cases()
    tr = verify_transitive_exhaustive()
    modes = {c["mode"] for c in rep["cases"]}
    ok = rep["pass"] and tr["pass"] and modes == {"exhaustive", "witness"}
    exhaustive_cases = [c["case"] for c in rep["cases"] if c["mode"] == "exhaustive"]
    _report(
        5,
        ok,
        f"all {len(rep['cases'])} lemma cases pass "
        f"(exhaustive: {exhaustive_cases}; others witness-checked); "
        f"transitive exhaustive S2..S6: {[e['groups_checked'] for e in tr['entries']]} classes",
    )


def test_criterion_06_mu_theorem_spot_checks():
    from solgrow.smallcases import verify_mu_theorem

    transitive = {
        "c2": 2,
        "s3": 3,
        "s4": 4,
        "agl1(4)": 4,
        "c2wrc2": 4,
        "agl1(5)": 5,
        "s3wrs2": 6,
        "agl1(7)": 7,
        "agl1(8)": 8,
        "f2^3:c7": 8,
        "s2wrs4": 8,
        "s4wrs2": 8,
    }
    irreducible = {
        "q8": (2, 3),
        "sl2(3)": (2, 3),
        "gl2(3)": (2, 3),
        "gl2(2)": (2, 2),
        "gl1(3)wrs2": (2, 3),
        "gammal1(8)": (3, 2),
        "gammal1(27)": (3, 3),
        "gammal1(16)": (4, 2),
        "gl2(2)wrs2": (4, 2),
        "gl1(3)wrs4": (4, 3),
    }
    count = 0
    for name, n in transitive.items():
        assert verify_mu_theorem(table_of(name), "transitive", n), name
        count += 1
    for name, (n, p) in irreducible.items():
        assert verify_mu_theorem(table_of(name), "irreducible", n, p=p), name
        count += 1
    _report(
        6,
        True,
        f"mu <= 3log4(n) on {len(transitive)} transitive groups (n <= 8) and "
        f"mu <= 3log4(n) + K on {len(irreducible)} irreducible groups (n <= 4), "
        "exact comparisons, zero failures",
    )


def test_criterion_07_growth_engine_exactness():
    t0 = time.time()
    z2 = growth_table(catalog("z2"), 25)
    ok_z2 = all(z2.counts[n] == 2 * n * n + 2 * n + 1 for n in range(26))
    t_z2 = time.time() - t0

    t0 = time.time()
    free = growth_table(catalog("sanov"), 12)
    ok_free = all(free.counts[n] == 2 * 3**n - 1 for n in range(13))
    t_free = time.time() - t0

    t0 = time.time()
    heis = growth_table(catalog("heisenberg"), 18)
    fit = growth_exponent_fit(heis, window=(10, 18))
    ok_heis = fit.kind == "polynomial" and 3.3 <= fit.parameter <= 4.5
    t_heis = time.time() - t0

    ok = ok_z2 and ok_free and ok_heis and max(t_z2, t_free, t_heis) < 120
    _report(
        7,
        ok,
        f"Z^2 exact to r=25 ({t_z2:.1f}s); free group exact to r=12 ({t_free:.1f}s); "
        f"Heisenberg degree fit {fit.parameter:.2f} in [3.3, 4.5] ({t_heis:.1f}s); each < 2 min",
    )


def _chain_pairs():
    """(group, seed set) corpus pairs for the chain soundness criterion."""
    pairs = []
    for name in [
        "s3",
        "s4",
        "q8",
        "sl2(3)",
        "gl2(3)",
        "f3^2:q8",
        "f2^3:c7",
        "agl1(5)",
        "agl1(8)",
        "c2wrc2",
        "s3wrs2",
        "agl1(9)",
    ]:
        T = table_of(name)
        seeds = sorted({1, min(2, T.n - 1), T.generators[0]})
        pairs.append((name, T, [seeds[0]]))
        pairs.append((name, T, seeds))
    return pairs


def test_criterion_08_milnor_chain_soundness():
    pairs = _chain_pairs()
    assert len(pairs) >= 20
    for name, T, seeds in pairs:
        ch = milnor_chain(T, seeds)
        closure = normal_closure(T, seeds)
        assert frozenset(ch.subgroups[ch.k].members) == frozenset(closure.members), name
        assert ch.closure_length <= ch.seed_length + 2 * ch.k, name
        distinct, gamma = chain_datapoint(ch)
        assert distinct and gamma >= 2**ch.k, name
    _report(
        8,
        True,
        f"{len(pairs)} (group, Y) pairs: H_k = normal closure, len(Z) <= L + 2k, "
        "2^k subset products distinct, gamma(kL + 2k^2) >= 2^k",
    )


def test_criterion_09_certificate_pipeline():
    details = []
    for name in ["f2^3:c7", "s4", "f3^2:q8"]:
        T = table_of(name)
        cert = certify_growth_lower_bound(T)
        # datapoint against an independently computed growth table
        gt = growth_table(T.gen_set, min(cert.radius, T.diameter()))
        gamma_val = gt.counts[-1] if cert.radius >= len(gt.counts) else gt.counts[cert.radius]
        assert gamma_val >= cert.bound, name
        assert cert.checks["distinct_products"] and cert.checks["datapoint"], name
        mu, _ = mu_fast(T)
        prod = math.prod(cert.cost_word)
        assert prod == 4**mu.a * 10**mu.b, name
        # canonical chain ends at the socle V
        assert cert.step_orders[-2] == cert.p**cert.rank, name
        details.append(f"{name}: gamma({cert.radius}) >= {cert.bound}")
    _report(9, True, "; ".join(details) + "; cost words match 4^a 10^b; chains end at V")


def test_criterion_10_srank_theorem_and_supersolubility():
    checked = 0
    for name in CORPUS_SOLUBLE:
        T = table_of(name)
        assert deep_derived_term_is_nilpotent(T, sc_chief_rank(T)), name
        # supersoluble iff rank 1, against the direct cyclic-factor definition
        lat = normal_subgroups(T)
        direct = all(rec.rank == 1 for rec in chief_series(T, lat))
        assert is_supersoluble(T, lat) == (sc_chief_rank(T, lat) == 1) == direct, name
        checked += 1
    prod = direct_product(table_of("sl2(3)"), table_of("f3^2:q8"))
    assert sc_chief_rank(prod) <= 2 and deep_derived_term_is_nilpotent(prod, 2)
    _report(
        10,
        True,
        f"derived-term nilpotency and supersolubility agreement on {checked} corpus "
        "groups plus SL2(3) x (F3^2 x| Q8)",
    )
