"""Machine verification of the small-degree bound lemma and the cost theorem.

Two modes, reported per case:
  exhaustive: every soluble irreducible (resp. transitive) subgroup of an
      ambient group of order <= 10^4 is checked against the claimed bound,
      one per conjugacy class: the classes of soluble subgroups are
      enumerated by prime cyclic extension of one representative each
      (`soluble_subgroup_classes`), and the structural test, the derived
      length and mu are all invariant under conjugation;
  witness: for degrees whose ambient general linear group is out of desk
      reach, the claim is checked on named catalog witnesses only. The
      report never claims more than was checked.

Every group entering a check is first checked to satisfy its structural
precondition (irreducible as a matrix group / transitive as a permutation
group); a failure raises ContextViolated, and an insoluble group raises
NotSoluble. A group named in several cases is built, and its
representatives found, once per `verify_small_cases` call. No witness of
the case table is enumerated: derived lengths and mu of block-monomial
witnesses are computed on the isomorphic permutation wreath model
(`constructions.wreath_table`), those of GammaL(1, q) on a table of
exponent labels (`constructions.semilinear_table`). The tests check both
against the element BFS's table of the same group, field by field. As the
checks read no element, neither model writes its rows. Irreducibility is
checked on the matrix model, by the rank of each orbit of the generators on
the nonzero vectors.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

from .bounds import (
    MU_IRREDUCIBLE_BOUND,
    MU_TRANSITIVE_BOUND,
    is_irreducible,
    is_transitive_on,
    permutation_structure,
)
from .catalog import catalog
from .constructions import matrix_to_perm_gens, semilinear_table, sym_gens, wreath_table
from .elements import GenSet, MatFp, Perm
from .errors import CapExceeded, ContextViolated, NotSoluble
from .mu import mu_fast
from .soluble import soluble_subgroup_classes
from .table import DEFAULT_CAP, FiniteGroupTable, Subgroup, derived_length, enumerate_group

DEFAULT_EXHAUSTIVE_SYM = (2, 3, 4, 5, 6)
QUICK_CAP = 2_040  # the largest witness model that a quick run checks


def _subgroup_gens(T: FiniteGroupTable, S: Subgroup) -> list:
    """Generator elements of S (T must be element-backed)."""
    if T.elements is None:
        raise ContextViolated("subgroup generators need an element-backed table")
    return [T.elements[g] for g in S.generators]


def _soluble_reps(T: FiniteGroupTable, keep: Callable[[list], bool]) -> list[Subgroup]:
    """Conjugacy representatives of the nontrivial soluble subgroups of T
    whose generator elements pass `keep` (a conjugation-invariant test)."""
    return [
        S for S in soluble_subgroup_classes(T) if S.generators and keep(_subgroup_gens(T, S))
    ]


# -- witness handling ---------------------------------------------------------


def witness_group(name: str, cap: int = DEFAULT_CAP) -> tuple[GenSet, FiniteGroupTable]:
    """Matrix generators plus a table model of a named witness.

    A block-monomial wreath L wr Sym(k) is modelled by the isomorphic
    permutation wreath of L's faithful action on nonzero vectors, derived
    from its factors' tables (`wreath_table`); GammaL(1, q) by a table of
    exponent labels (`semilinear_table`). Each equals, field by field, the
    element BFS's table of the same group. Any other witness is enumerated.
    Raises CapExceeded for a model of more than `cap` elements, before
    either derived model allocates anything.
    """
    key = name.lower().replace(" ", "")
    semilinear = key.startswith("gammal1(") and "wrs" not in key
    model = semilinear_table(int(key[len("gammal1(") : -1]), cap) if semilinear else None
    gens = catalog(name) if model is None else model.gen_set  # the model's own set
    if gens.variant != "matfp":
        raise ContextViolated(f"witness {name} is not a matrix group")
    if "wrs" in key:
        base_name, _, k_str = key.rpartition("wrs")
        base = catalog(base_name)
        perm_base = enumerate_group(matrix_to_perm_gens(list(base.elements)))  # type: ignore[arg-type]
        top = enumerate_group(sym_gens(int(k_str)))
        model = wreath_table(perm_base, top, cap)
    elif model is None:
        model = enumerate_group(gens, cap)
    return gens, model


def _check_witness(
    name: str, gens: GenSet, model: FiniteGroupTable, n: int, p: int,
    mu_claim: tuple[int, int, int] | None, delta_claim: int | None,
) -> dict:
    """Check claimed bounds on one named irreducible witness, given its
    generators and table model (`witness_group`)."""
    first = gens.elements[0]
    if not (isinstance(first, MatFp) and first.n == n and first.p == p):
        raise ContextViolated(f"witness {name} is not in GL_{n}({p})")
    if not is_irreducible(list(gens.elements)):  # type: ignore[arg-type]
        raise ContextViolated(f"witness {name} is reducible")
    entry: dict = {"name": name, "order": model.n, "mode": "witness"}
    ok = True
    delta = derived_length(model)
    if delta is None:
        raise NotSoluble(f"witness {name} is not soluble")
    entry["delta"] = delta
    if delta_claim is not None:
        entry["delta_bound"] = delta_claim
        ok = ok and delta <= delta_claim
    if mu_claim is not None:
        mu, _ = mu_fast(model)
        c_num, c_den, r = mu_claim
        entry["mu"] = mu.as_dict()
        entry["mu_bound"] = {"c_num": c_num, "c_den": c_den, "r": r}
        ok = ok and mu.leq_bound(c_num, c_den, r, 0, 1)
    entry["pass"] = ok
    return entry


# -- the case table -----------------------------------------------------------

# mu claims are (c_num, c_den, r): the bound c_num/c_den + r*log4(10).
_CASES: list[dict] = [
    {
        "id": "case-0-n1-delta",
        "statement": "irreducible soluble in GL_1(p): delta <= 1",
        "n": 1,
        "mu_claim": None,
        "delta_claim": 1,
        "exhaustive": ["gl1(3)", "gl1(5)", "gl1(7)"],
        "witnesses": [],
    },
    {
        "id": "case-1-n2-mu",
        "statement": "irreducible soluble in GL_2(p): mu <= 2 + log4(10)",
        "n": 2,
        "mu_claim": (2, 1, 1),
        "delta_claim": None,
        "exhaustive": ["gl2(2)", "gl2(3)"],
        "witnesses": [],
    },
    {
        "id": "case-2-n3-mu",
        "statement": "irreducible soluble in GL_3(p): mu <= 1 + 2*log4(10)",
        "n": 3,
        "mu_claim": (1, 1, 2),
        "delta_claim": None,
        "exhaustive": ["gl3(2)"],
        "witnesses": [("gammal1(27)", 3, 3)],
    },
    {
        "id": "case-3-n4-mu",
        "statement": "irreducible soluble in GL_4(p): mu <= 3 + log4(10)",
        "n": 4,
        "mu_claim": (3, 1, 1),
        "delta_claim": None,
        "exhaustive": [],
        "witnesses": [("gl2(2)wrs2", 4, 2), ("gammal1(16)", 4, 2), ("gl1(3)wrs4", 4, 3)],
    },
    {
        "id": "case-4-nprime-p2-delta",
        "statement": "irreducible soluble in GL_n(2), n prime: delta <= 2",
        "n": None,
        "mu_claim": None,
        "delta_claim": 2,
        "exhaustive": ["gl2(2)", "gl3(2)"],
        "witnesses": [("gammal1(32)", 5, 2), ("gammal1(128)", 7, 2)],
    },
    {
        "id": "case-5-n4-p2-delta",
        "statement": "irreducible soluble in GL_4(2): delta <= 3",
        "n": 4,
        "mu_claim": None,
        "delta_claim": 3,
        "exhaustive": [],
        "witnesses": [("gl2(2)wrs2", 4, 2), ("gammal1(16)", 4, 2)],
    },
    {
        "id": "case-6-n6-p2",
        "statement": "irreducible soluble in GL_6(2): delta <= 6 and mu <= 2 + 2*log4(10)",
        "n": 6,
        "mu_claim": (2, 1, 2),
        "delta_claim": 6,
        "exhaustive": [],
        "witnesses": [("gl2(2)wrs3", 6, 2), ("gammal1(64)", 6, 2), ("gammal1(8)wrs2", 6, 2)],
    },
    {
        "id": "case-7-n8-p2-delta",
        "statement": "irreducible soluble in GL_8(2): delta <= 5",
        "n": 8,
        "mu_claim": None,
        "delta_claim": 5,
        "exhaustive": [],
        "witnesses": [("gl2(2)wrs4", 8, 2), ("gammal1(256)", 8, 2), ("gammal1(16)wrs2", 8, 2)],
    },
    {
        "id": "case-8-n9-p2-delta",
        "statement": "irreducible soluble in GL_9(2): delta <= 5",
        "n": 9,
        "mu_claim": None,
        "delta_claim": 5,
        "exhaustive": [],
        "witnesses": [("gammal1(512)", 9, 2), ("gammal1(8)wrs3", 9, 2)],
    },
    {
        "id": "case-9-n10-p2-delta",
        "statement": "irreducible soluble in GL_10(2): delta <= 4",
        "n": 10,
        "mu_claim": None,
        "delta_claim": 4,
        "exhaustive": [],
        "witnesses": [("gammal1(1024)", 10, 2), ("gammal1(32)wrs2", 10, 2)],
    },
]


def _irreducible_reps(ambient: str) -> tuple[FiniteGroupTable, list[Subgroup]]:
    """An ambient's table and its soluble irreducible class representatives."""
    T = enumerate_group(catalog(ambient))
    return T, _soluble_reps(T, is_irreducible)


def _check_exhaustive_linear(
    ambient: str, T: FiniteGroupTable, reps: list[Subgroup], mu_claim, delta_claim
) -> dict:
    n, p = T.elements[0].n, T.elements[0].p
    entry = {"ambient": ambient, "n": n, "p": p, "groups_checked": len(reps),
             "mode": "exhaustive"}
    ok = True
    for S in reps:
        if delta_claim is not None:
            delta = derived_length(T, S)
            if delta is None:
                raise NotSoluble(f"subgroup of order {S.order} of {ambient} is not soluble")
            ok = ok and delta <= delta_claim
        if mu_claim is not None:
            mu, _ = mu_fast(T, start=S)
            c_num, c_den, r = mu_claim
            ok = ok and mu.leq_bound(c_num, c_den, r, 0, 1)
    entry["pass"] = ok
    return entry


def verify_small_cases(quick: bool = False) -> dict:
    """Run every case of the small-degree lemma; report per-case status.

    quick=True skips the witnesses whose models have more than `QUICK_CAP`
    elements (4,599 to 55,566; their entries are marked "skipped-quick")
    and keeps those of at most 2,040.
    """
    cases = []
    all_ok = True
    # A group named in several cases is built once per call (by
    # `_irreducible_reps` or `witness_group`) and dropped after its last
    # case, so that no witness model is held past its checks.
    left = Counter(
        [(_irreducible_reps, name) for case in _CASES for name in case["exhaustive"]]
        + [(witness_group, w[0]) for case in _CASES for w in case["witnesses"]]
    )
    built: dict = {}

    def group(build: Callable[..., tuple], name: str, *args) -> tuple:
        key = (build, name)
        if key not in built:
            built[key] = build(name, *args)
        left[key] -= 1
        return built[key] if left[key] else built.pop(key)

    for case in _CASES:
        entries = []
        for ambient in case["exhaustive"]:
            entries.append(
                _check_exhaustive_linear(
                    ambient, *group(_irreducible_reps, ambient),
                    case["mu_claim"], case["delta_claim"],
                )
            )
        for name, n, p in case["witnesses"]:
            try:
                witness = group(witness_group, name, QUICK_CAP if quick else DEFAULT_CAP)
            except CapExceeded:
                if not quick:
                    raise
                entries.append({"name": name, "mode": "skipped-quick", "pass": True})
                continue
            entries.append(
                _check_witness(name, *witness, n, p, case["mu_claim"], case["delta_claim"])
            )
        case_ok = all(e["pass"] for e in entries)
        all_ok = all_ok and case_ok
        cases.append(
            {
                "case": case["id"],
                "statement": case["statement"],
                "mode": "exhaustive" if case["exhaustive"] else "witness",
                "entries": entries,
                "pass": case_ok,
            }
        )
    return {"cases": cases, "pass": all_ok}


# -- the transitive/irreducible cost theorem ----------------------------------


def verify_mu_theorem(
    T: FiniteGroupTable,
    kind: str,
    n: int,
    p: int | None = None,
    subgroup: Subgroup | None = None,
) -> bool:
    """Exact check of the cost bound for one group in one context.

    kind="transitive": T must be permutation-backed and transitive on n
    points; bound 3*log4(n). kind="irreducible": the group's matrices
    (T's elements) must act irreducibly on F_p^n; bound
    3*log4(n) + K. Raises ContextViolated if the precondition fails.
    """
    if kind == "transitive":
        if subgroup is not None:
            if not is_transitive_on(_subgroup_gens(T, subgroup), n):
                raise ContextViolated("subgroup is not transitive")
        else:
            first = T.elements[0] if T.elements is not None else None
            if not (isinstance(first, Perm) and first.degree == n):
                raise ContextViolated(f"group is not a permutation group of degree {n}")
            if not permutation_structure(T)["transitive"]:
                raise ContextViolated("group is not transitive")
        c_num, c_den, r, s = MU_TRANSITIVE_BOUND
    elif kind == "irreducible":
        if T.elements is None or not isinstance(T.elements[0], MatFp):
            raise ContextViolated("group is not a matrix group")
        src = subgroup.generators if subgroup is not None else T.generators
        mats = [T.elements[g] for g in src]
        if not (mats and mats[0].n == n and (p is None or mats[0].p == p)):
            raise ContextViolated(f"matrices are not in GL_{n}({p or 'p'})")
        if not is_irreducible(mats):
            raise ContextViolated("group is not irreducible")
        c_num, c_den, r, s = MU_IRREDUCIBLE_BOUND
    else:
        raise ValueError(f"unknown context kind {kind!r}")
    mu, _ = mu_fast(T, start=subgroup)
    return mu.leq_bound(c_num, c_den, r, s, n)


def verify_transitive_exhaustive(degrees: Sequence[int] = DEFAULT_EXHAUSTIVE_SYM) -> dict:
    """Cost bound 3*log4(n) over all soluble transitive subgroups of Sym(n)."""
    entries = []
    ok_all = True
    for n in degrees:
        T = enumerate_group(sym_gens(n))
        reps = _soluble_reps(T, lambda gens: is_transitive_on(gens, n))
        ok = all(
            verify_mu_theorem(T, "transitive", n, subgroup=S) for S in reps
        )
        entries.append(
            {"degree": n, "groups_checked": len(reps), "mode": "exhaustive", "pass": ok}
        )
        ok_all = ok_all and ok
    return {"entries": entries, "pass": ok_all}
