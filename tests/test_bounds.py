"""Bound formulas, structural tests, and the theorem spot checks."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from mpmath import mp, mpf, log as mplog

from conftest import table_of
from oracles import direct_product, naive_is_irreducible

import solgrow.smallcases as smallcases
from solgrow.bounds import (
    bound_decimal,
    is_irreducible,
    mu_bound,
    mu_bound_constant,
    permutation_structure,
    rho_bound,
    rho_int_bound,
    sigma_formula,
    sigma_value,
)
from solgrow.catalog import catalog
from solgrow.elements import GenSet, MatFp, Perm
from solgrow.errors import CapExceeded, ContextViolated, InvariantViolated, NotSoluble
from solgrow.mu import MuValue
from solgrow.smallcases import (
    _check_witness,
    _subgroup_gens,
    verify_mu_theorem,
    verify_small_cases,
    verify_transitive_exhaustive,
    witness_group,
)
from solgrow.table import enumerate_group, whole_group


def test_sigma_table_values():
    expected = {1: 1, 2: 4, 3: 5, 4: 5, 5: 5, 6: 6, 7: 6}
    for n, v in expected.items():
        assert sigma_value(n)["exact"] == v
    assert sigma_value(8)["exact"] is None
    assert sigma_value(8)["bound"] == pytest.approx(5 * math.log(8, 9) + 8 - 15 * math.log(2, 9))


def test_sigma_consistent_with_formula():
    for n in range(1, 8):
        assert sigma_value(n)["exact"] <= sigma_formula(n)


def test_rho_values():
    assert rho_bound(1) == 6.0
    assert rho_bound(2) == pytest.approx(7.57732438, abs=1e-6)
    assert rho_int_bound(1) == 5
    assert rho_int_bound(2) == 7
    assert rho_int_bound(9) == 10  # bound is exactly 11 there; strict
    assert rho_int_bound(81) == 15


def test_rho_int_bound_exact_sweep():
    # largest integer strictly below the bound, for every n up to 2000
    mp.dps = 60
    for n in range(1, 2001):
        k = rho_int_bound(n)
        bound = 5 * mplog(n) / mplog(9) + 6
        assert mpf(k) < bound
        assert mpf(k + 1) >= bound


def test_mu_bound_constant():
    assert mu_bound_constant() == pytest.approx(2.4828921423310447, abs=1e-12)
    assert mu_bound(1, "transitive") == 0.0
    # the n=8 irreducible bound equals 2 + 3*log4(10) exactly
    assert mu_bound(8, "irreducible") == pytest.approx(2 + 3 * math.log(10, 4), abs=1e-12)


def test_bound_decimals_match_mpmath():
    mp.dps = 40
    val = mpf(bound_decimal("mu_irreducible", 8))
    target = 2 + 3 * mplog(10) / mplog(4)
    assert abs(val - target) < mpf(10) ** (-28)
    assert bound_decimal("sigma", 2) == "4.0"


def test_is_irreducible_examples():
    assert is_irreducible([MatFp(1, 5, [[2]])])
    assert is_irreducible(list(catalog("q8").elements))
    diag = [MatFp(2, 3, [[2, 0], [0, 1]]), MatFp(2, 3, [[1, 0], [0, 2]])]
    assert not is_irreducible(diag)
    # permutation matrices fix the all-ones vector
    perm_mats = [MatFp(3, 2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])]
    assert not is_irreducible(perm_mats)


# Ambients: every nontrivial soluble subgroup, with their number. Witnesses:
# every nonempty subset of the catalog generators.
ORACLE_AMBIENTS = {"gl2(2)": 5, "gl2(3)": 54, "gl3(2)": 177}
ORACLE_WITNESSES = ["gammal1(16)", "gl2(2)wrs2", "gl1(3)wrs4"]


@pytest.mark.parametrize("name", list(ORACLE_AMBIENTS) + ORACLE_WITNESSES)
def test_is_irreducible_matches_subspace_oracle(name):
    from solgrow.soluble import soluble_subgroups

    if name in ORACLE_AMBIENTS:
        T = table_of(name)
        subs = [S for S in soluble_subgroups(T) if S.generators]
        assert len(subs) == ORACLE_AMBIENTS[name]
        gen_lists = [[T.elements[g] for g in S.generators] for S in subs]
    else:
        gens = list(catalog(name).elements)
        gen_lists = [list(c) for k in range(1, len(gens) + 1) for c in combinations(gens, k)]
    verdicts = set()
    for gens in gen_lists:
        verdict = is_irreducible(gens)
        assert verdict == naive_is_irreducible(gens)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_irreducible_cap():
    with pytest.raises(CapExceeded):
        is_irreducible([MatFp(15, 2, [[int(i == j) for j in range(15)] for i in range(15)])])


def test_permutation_structure_examples():
    c4 = permutation_structure(table_of("c4"))
    assert c4["transitive"] and not c4["primitive"]
    assert any(len(bs[0]) == 2 for bs in c4["block_systems"])
    agl5 = permutation_structure(table_of("agl1(5)"))
    assert agl5["transitive"] and agl5["primitive"]
    w = permutation_structure(table_of("s3wrs2"))
    assert w["transitive"] and not w["primitive"]
    assert [len(b) for b in w["block_systems"][0]] == [3, 3]
    s4 = permutation_structure(table_of("s4"))
    assert s4["primitive"]


def test_permutation_structure_unequal_blocks_raise(monkeypatch):
    # a block partition with blocks of unequal size is an internal fault
    import solgrow.bounds

    monkeypatch.setattr(solgrow.bounds, "_block_partition", lambda *_: [[0, 1, 2], [3]])
    with pytest.raises(InvariantViolated, match="blocks of unequal size"):
        permutation_structure(table_of("c4"))


def test_catalog_orders():
    assert table_of("sl2(3)").n == 24
    assert table_of("q8").n == 8
    assert table_of("gl1(3)wrs2").n == 8
    assert enumerate_group(catalog("agl2(3)")).n == 432
    assert table_of("gammal1(8)").n == 21
    assert table_of("s4tower(1)").n == 24


def test_verify_mu_theorem_transitive():
    assert verify_mu_theorem(table_of("s4"), "transitive", 4)
    assert verify_mu_theorem(table_of("c2"), "transitive", 2)
    assert verify_mu_theorem(table_of("agl1(5)"), "transitive", 5)
    # mu(S4) = 3 = 3*log4(4) exactly: the comparison must see equality
    assert MuValue(3, 0).cmp_bound(0, 1, 0, 3, 4) == 0


def test_verify_mu_theorem_irreducible():
    T = table_of("gl2(3)")
    assert verify_mu_theorem(T, "irreducible", 2, p=3)
    assert verify_mu_theorem(table_of("q8"), "irreducible", 2, p=3)
    assert verify_mu_theorem(table_of("gammal1(16)"), "irreducible", 4, p=2)


def test_verify_mu_theorem_context_violated():
    intransitive = enumerate_group(GenSet([Perm([1, 0, 2, 3])]))
    with pytest.raises(ContextViolated):
        verify_mu_theorem(intransitive, "transitive", 4)
    diag = enumerate_group(
        GenSet([MatFp(2, 3, [[2, 0], [0, 1]]), MatFp(2, 3, [[1, 0], [0, 2]])])
    )
    with pytest.raises(ContextViolated):
        verify_mu_theorem(diag, "irreducible", 2, p=3)


def test_small_cases_context_checks_raise():
    # raised rather than asserted, so that python -O keeps the checks
    perm, mat = table_of("s4"), table_of("gl2(3)")
    no_elements = direct_product(perm, perm)
    cases = [
        (lambda: verify_mu_theorem(mat, "transitive", 2), "not a permutation group"),
        (lambda: verify_mu_theorem(perm, "transitive", 5), "not a permutation group"),
        (lambda: verify_mu_theorem(perm, "irreducible", 2, p=3), "not a matrix group"),
        (lambda: verify_mu_theorem(mat, "irreducible", 3, p=3), r"not in GL_3\(3\)"),
        (lambda: verify_mu_theorem(mat, "irreducible", 2, p=5), r"not in GL_2\(5\)"),
        (
            lambda: _check_witness("gl2(3)", *witness_group("gl2(3)"), 2, 5, None, 4),
            r"not in GL_2\(5\)",
        ),
        (lambda: _subgroup_gens(no_elements, whole_group(no_elements)), "element-backed"),
    ]
    for call, message in cases:
        with pytest.raises(ContextViolated, match=message):
            call()


def test_sharpness_witness():
    # delta(GL2(3)) = 4 attains sigma(2)
    from solgrow.table import derived_length

    assert derived_length(table_of("gl2(3)")) == 4 == sigma_value(2)["exact"]


def test_exhaustive_groups_checked():
    # conjugacy classes of soluble irreducible (transitive) subgroups per ambient
    rep = verify_small_cases(quick=True)
    linear = [
        (e["ambient"], e["groups_checked"])
        for c in rep["cases"]
        for e in c["entries"]
        if e["mode"] == "exhaustive"
    ]
    assert linear == [
        ("gl1(3)", 1), ("gl1(5)", 2), ("gl1(7)", 3),
        ("gl2(2)", 2), ("gl2(3)", 7),
        ("gl3(2)", 2),
        ("gl2(2)", 2), ("gl3(2)", 2),
    ]
    transitive = verify_transitive_exhaustive()["entries"]
    assert [(e["degree"], e["groups_checked"]) for e in transitive] == [
        (2, 1), (3, 2), (4, 5), (5, 3), (6, 12)
    ]


def test_transitive_exhaustive_at_degree_seven():
    # Sym(7) has 5,040 elements; its soluble transitive subgroups up to
    # conjugacy are C7, D7, 7:3 and AGL(1,7). Degree 7 is not among the
    # default degrees, so `verify-cases` output is unchanged.
    assert 7 not in smallcases.DEFAULT_EXHAUSTIVE_SYM
    assert verify_transitive_exhaustive(degrees=(7,)) == {
        "entries": [{"degree": 7, "groups_checked": 4, "mode": "exhaustive", "pass": True}],
        "pass": True,
    }


def test_repeated_groups_built_once_per_run(monkeypatch):
    # gl2(2) and gl3(2) are ambients of two cases each, gl2(2)wrs2 and
    # gammal1(16) witnesses of two; each is enumerated once per call
    built: list[str] = []
    for fn in ("_irreducible_reps", "witness_group"):
        original = getattr(smallcases, fn)

        def counted(name, original=original):
            built.append(name)
            return original(name)

        monkeypatch.setattr(smallcases, fn, counted)
    rep = verify_small_cases(quick=True)
    assert rep["pass"] is True
    named = [
        e.get("ambient", e.get("name")) for c in rep["cases"] for e in c["entries"]
        if e["mode"] != "skipped-quick"
    ]
    assert len(named) > len(set(named))
    assert sorted(built) == sorted(set(named))


def test_witness_checks_write_no_rows(monkeypatch):
    # the checks read a witness model's order, derived length and mu only,
    # so no derived model writes its element rows
    models = []

    def kept(name, original=smallcases.witness_group):
        models.append(original(name))
        return models[-1]

    monkeypatch.setattr(smallcases, "witness_group", kept)
    assert verify_small_cases()["pass"] is True
    assert len(models) == len({w[0] for case in smallcases._CASES for w in case["witnesses"]})
    assert all(callable(model.elements._rows) for _gens, model in models)


def test_insoluble_witness_raises_not_soluble():
    # GL_3(2) is irreducible but simple: the derived length check must raise
    # a SolgrowError, not an assert that `python -O` strips.
    with pytest.raises(NotSoluble):
        _check_witness("gl3(2)", *witness_group("gl3(2)"), 3, 2, None, 2)
