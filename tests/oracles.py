"""Independent brute-force oracles: definitional recomputations used to
freeze expected values. Deliberately naive; no shared code paths with the
algorithms they check beyond the element arithmetic itself.

The last section holds what several test modules share that is no oracle:
tables derived from other tables (direct products, subgroup tables), the
centre, and the checks of the paper's lemmas that more than one test runs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, product as cartesian
from typing import Callable, Sequence

import numpy as np

from solgrow.bounds import rho_int_bound
from solgrow.elements import GenSet, MatFp
from solgrow.milnor import MilnorChain, subset_products
from solgrow.mu import mu_fast
from solgrow.soluble import normal_subgroups, soluble_subgroups
from solgrow.table import (
    FiniteGroupTable,
    Subgroup,
    derived_series,
    lower_central_series,
    quotient,
    reduce_generators,
    subgroup_generated,
    whole_group,
)


def word_ball_lengths(gens: GenSet, radius: int) -> dict[bytes, int]:
    """Exact word lengths by enumerating all words up to the radius."""
    e = gens.identity()
    steps = [g for g, _ in gens.bfs_steps()]
    dist = {e.encode(): 0}
    layer = [e]
    for r in range(1, radius + 1):
        nxt = []
        for x in layer:
            for s in steps:
                y = x * s
                k = y.encode()
                if k not in dist:
                    dist[k] = r
                    nxt.append(y)
        layer = nxt
    return dist


def object_enumeration(gens: GenSet) -> dict:
    """First-discovery BFS over element objects, one product at a time.

    Returns the encodings in index order, the element objects, the word
    lengths, each step's right action on indices and each element's inverse
    index (by the element's own `inverse`).
    """
    steps = [g for g, _ in gens.bfs_steps()]
    e = gens.identity()
    index = {e.encode(): 0}
    elements = [e]
    lengths = [0]
    actions: list[list[int]] = [[] for _ in steps]
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for action, s in zip(actions, steps):
                y = x * s
                k = y.encode()
                if k not in index:
                    index[k] = len(elements)
                    elements.append(y)
                    lengths.append(lengths[index[x.encode()]] + 1)
                    nxt.append(y)
                action.append(index[k])
        frontier = nxt
    return {
        "encodings": list(index),
        "elements": elements,
        "word_length": lengths,
        "actions": actions,
        "generators": [index[g.encode()] for g in gens.elements],
        "inv_idx": [index[g.inverse().encode()] for g in elements],
    }


def parent_chain_inverses(T: FiniteGroupTable) -> list[int]:
    """Each element's inverse index by walking its BFS parent chain.

    If i is s_1 ... s_k along its BFS geodesic, i^-1 = 0 * s_k^-1 * ... *
    s_1^-1: walking up from i applies the inverse of each parent step's
    action, inverted here as a permutation of the indices.
    """
    undo = [np.argsort(a).tolist() for a in T._actions]
    out = []
    for i in range(T.n):
        inv = 0
        while i != 0:
            inv = undo[T._parent_step[i]][inv]
            i = T._parent[i]
        out.append(inv)
    return out


def unique_rule_bfs(actions: Sequence[np.ndarray], n: int):
    """Word lengths, BFS parents, parent steps and levels over step actions,
    each new index taking its first (frontier position, step) product as
    `np.unique` finds it: the first occurrence of each sorted value."""
    wl = np.full(n, -1, dtype=np.int32)
    parent = np.zeros(n, dtype=np.int32)
    step = np.zeros(n, dtype=np.int32)
    wl[0] = 0
    frontier = np.zeros(1, dtype=np.int32)
    levels = [frontier]
    k = len(actions)
    depth = 0
    while k and frontier.size:
        reached = np.stack([a[frontier] for a in actions], axis=1).ravel()
        fresh = np.flatnonzero(wl[reached] < 0)
        _, first = np.unique(reached[fresh], return_index=True)
        fresh = fresh[np.sort(first)]
        found = reached[fresh]
        depth += 1
        wl[found] = depth
        parent[found] = frontier[fresh // k]
        step[found] = fresh % k
        frontier = found
        levels.append(found)
    return wl, parent, step, levels


@lru_cache(maxsize=None)
def _proper_subspaces(n: int, p: int) -> list[frozenset[tuple[int, ...]]]:
    """Every proper nonzero subspace of F_p^n, grown from {0} one vector at a time.

    The span of a subspace W and a vector v is {w + c*v : w in W, c in F_p};
    every subspace is reached by adjoining its basis vectors in turn.
    """
    vectors = list(cartesian(range(p), repeat=n))
    found: set[frozenset[tuple[int, ...]]] = set()
    frontier = [frozenset(vectors[:1])]
    while frontier:
        nxt = []
        for W in frontier:
            for v in vectors:
                if v in W:
                    continue
                U = frozenset(
                    tuple((a + c * b) % p for a, b in zip(w, v)) for w in W for c in range(p)
                )
                if len(U) < p**n and U not in found:
                    found.add(U)
                    nxt.append(U)
        frontier = nxt
    return list(found)


def matrix_apply(M: MatFp, vec: Sequence[int]) -> tuple[int, ...]:
    """M times the column vector vec over F_p."""
    n, p = M.n, M.p
    return tuple(sum(M.entries[i * n + j] * vec[j] for j in range(n)) % p for i in range(n))


def naive_is_irreducible(gens: Sequence[MatFp]) -> bool:
    """No proper nonzero subspace of F_p^n is invariant, checking each one."""
    n, p = gens[0].n, gens[0].p
    return not any(
        all(matrix_apply(M, v) in W for M in gens for v in W) for W in _proper_subspaces(n, p)
    )


def word_ball_sizes(gens: GenSet, radius: int) -> list[int]:
    dist = word_ball_lengths(gens, radius)
    return [sum(1 for d in dist.values() if d <= r) for r in range(radius + 1)]


def naive_subgroup(T: FiniteGroupTable, seeds: list[int]) -> frozenset[int]:
    """Fixpoint closure under all pairwise products and inverses."""
    S = set(seeds) | {0}
    while True:
        new = set()
        for a in S:
            new.add(T.inv_idx[a])
            for b in S:
                new.add(T.mul(a, b))
        if new <= S:
            return frozenset(S)
        S |= new


def closure_from_identity(T: FiniteGroupTable, gens: Sequence[int]) -> list[int]:
    """Members of <gens> rebuilt from scratch: breadth-first from the
    identity under right multiplication by every generator."""
    maps = [T.right_action(g).tolist() for g in gens]
    members, seen = [0], {0}
    for x in members:
        for m in maps:
            if m[x] not in seen:
                seen.add(m[x])
                members.append(m[x])
    return members


def quotient_by_scalar_products(T: FiniteGroupTable, N: Subgroup) -> tuple[list[int], list[int]]:
    """Coset labels and representatives of T/N, one scalar product at a
    time: each index not yet labelled starts a coset, labelled g*x for
    every member x of N, so cosets are numbered by their least element."""
    coset_of, reps = [-1] * T.n, []
    for g in range(T.n):
        if coset_of[g] < 0:
            for x in N.members:
                coset_of[T.mul(g, x)] = len(reps)
            reps.append(g)
    return coset_of, reps


def reduce_generators_reclosing(T: FiniteGroupTable, members: Sequence[int]) -> tuple[int, ...]:
    """Greedy generators by index order, re-closing from the identity after
    each generator kept."""
    gens: list[int] = []
    closed = {0}
    for x in members:
        if len(closed) == len(members):
            break
        if x not in closed:
            gens.append(x)
            closed = set(closure_from_identity(T, gens))
    return tuple(gens)


def normal_closure_by_rounds(
    T: FiniteGroupTable, seeds: Sequence[int], conjugators: Sequence[int]
) -> frozenset[int]:
    """Rounds of conjugates by the conjugators, each round re-closed from
    the identity, until a round finds nothing new."""
    gens = list(dict.fromkeys(s for s in seeds if s != 0))
    while True:
        H = set(closure_from_identity(T, gens))
        new = {T.conj(x, g) for x in gens for g in conjugators} - H
        if not new:
            return frozenset(H)
        gens += sorted(new)


def milnor_chain_from_scratch(T: FiniteGroupTable, seeds: Sequence[int]) -> dict:
    """The conjugate chain with every H_i = <Y_i> built by
    `subgroup_generated` on its own, Y_i grown one word length at a time
    by `T.conj`."""
    by_len: dict[int, list[int]] = {}
    for g, d in enumerate(T.word_length):
        by_len.setdefault(d, []).append(g)
    level = set(seeds)
    levels = [tuple(sorted(level))]
    subgroups = [subgroup_generated(T, levels[0])]
    while True:
        i = len(levels)
        level |= {T.conj(y, g) for y in seeds for g in by_len.get(i, [])}
        levels.append(tuple(sorted(level)))
        subgroups.append(subgroup_generated(T, levels[-1]))
        if subgroups[-1].order == subgroups[-2].order:
            break
    k = len(levels) - 2
    witnesses = tuple(
        next(y for y in levels[j] if y not in frozenset(subgroups[j - 1].members))
        for j in range(1, k + 1)
    )
    return {"levels": levels, "subgroups": subgroups, "k": k, "witnesses": witnesses}


def naive_normal_closure(T: FiniteGroupTable, seeds: list[int]) -> frozenset[int]:
    """Fixpoint closure under products, inverses, and all conjugations."""
    S = set(seeds) | {0}
    while True:
        new = set()
        for a in S:
            new.add(T.inv_idx[a])
            for b in S:
                new.add(T.mul(a, b))
            for g in range(T.n):
                new.add(T.conj(a, g))
        if new <= S:
            return frozenset(S)
        S |= new


def naive_commutator_subgroup(
    T: FiniteGroupTable, A: frozenset[int], B: frozenset[int]
) -> frozenset[int]:
    """Normal closure in <A, B> of all member-pair commutators."""
    joint = naive_subgroup(T, sorted(A | B))
    comms = {T.comm(a, b) for a in A for b in B}
    S = set(comms) | {0}
    while True:
        new = set()
        for a in S:
            new.add(T.inv_idx[a])
            for b in S:
                new.add(T.mul(a, b))
            for g in joint:
                new.add(T.conj(a, g))
        if new <= S:
            return frozenset(S)
        S |= new


def naive_derived_series(T: FiniteGroupTable) -> list[frozenset[int]]:
    series = [frozenset(range(T.n))]
    while True:
        nxt = naive_commutator_subgroup(T, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if len(nxt) == 1:
            break
    return series


def naive_lower_central_series(T: FiniteGroupTable) -> list[frozenset[int]]:
    whole = frozenset(range(T.n))
    series = [whole]
    while True:
        nxt = naive_commutator_subgroup(T, series[-1], whole)
        if nxt == series[-1]:
            break
        series.append(nxt)
        if len(nxt) == 1:
            break
    return series


def naive_centralizer(T: FiniteGroupTable, members: frozenset[int]) -> frozenset[int]:
    return frozenset(
        g for g in range(T.n) if all(T.mul(g, s) == T.mul(s, g) for s in members)
    )


def naive_self_centralizing(T: FiniteGroupTable, N: Subgroup, M: Subgroup) -> bool:
    """Whether {g : [g, m] in N for every m in M} is exactly M."""
    below = frozenset(N.members)
    pre = frozenset(g for g in range(T.n) if all(T.comm(g, m) in below for m in M.members))
    return pre == frozenset(M.members)


def minimal_over(subgroups: Sequence[Subgroup], N: Subgroup) -> list[Subgroup]:
    """Minimal members of a normal lattice strictly containing N, scanning
    the whole lattice pairwise."""
    below = frozenset(N.members)
    sets = {id(K): frozenset(K.members) for K in subgroups}
    overs = [K for K in subgroups if sets[id(K)] > below]
    return [K for K in overs if not any(sets[id(K)] > sets[id(J)] for J in overs)]


def naive_is_normal(
    T: FiniteGroupTable, members: frozenset[int], within: Sequence[int] | None = None
) -> bool:
    """Whether conjugation by each element of `within` (default T) keeps the members."""
    conjugators = range(T.n) if within is None else within
    return all(T.conj(x, g) in members for x in members for g in conjugators)


def naive_all_subgroups_tiny(T: FiniteGroupTable) -> set[frozenset[int]]:
    """All subgroups by filtering every subset; only for |T| <= 16."""
    assert T.n <= 16
    out = set()
    elems = list(range(1, T.n))
    for r in range(T.n):
        for comb in _combinations(elems, r):
            S = frozenset((0,) + comb)
            if all(T.mul(a, b) in S for a in S for b in S) and all(
                T.inv_idx[a] in S for a in S
            ):
                out.add(S)
    return out


def _combinations(pool, r):
    if r == 0:
        yield ()
        return
    for i, x in enumerate(pool):
        for rest in _combinations(pool[i + 1 :], r - 1):
            yield (x,) + rest


def subgroup_family_is_extension_closed(
    T: FiniteGroupTable, family: list[Subgroup]
) -> bool:
    """Completeness oracle: a family containing the trivial subgroup and
    closed under single-element extensions contains every subgroup."""
    keys = {frozenset(S.members) for S in family}
    if frozenset({0}) not in keys:
        return False
    for S in family:
        for g in range(T.n):
            ext = naive_subgroup(T, list(S.generators) + [g])
            if ext not in keys:
                return False
    return True


def z2_ball(n: int) -> int:
    """Lattice points with |i| + |j| <= n, counted directly."""
    return sum(1 for i in range(-n, n + 1) for j in range(-n, n + 1) if abs(i) + abs(j) <= n)


def free_group_ball(n: int) -> int:
    """Reduced words of length <= n over two letters, counted directly."""
    total = 1
    layer = 4
    for _ in range(1, n + 1):
        total += layer
        layer *= 3
    return total if n >= 1 else 1


def free_group_reduced_words(n: int) -> int:
    """Reduced-word count by explicit tree enumeration (cross-check)."""
    count = 0
    letters = [1, -1, 2, -2]
    stack = [(0, ())]
    while stack:
        depth, word = stack.pop()
        count += 1
        if depth == n:
            continue
        for l in letters:
            if word and word[-1] == -l:
                continue
            stack.append((depth + 1, word + (l,)))
    return count


def lamplighter_ball(r: int) -> list[int]:
    """Ball sizes gamma(0..r) of the lamplighter group over t (head +1) and
    a (flip the lamp at the head), counted from a word-length formula with
    no element product.

    An element is a finite lamp set f with the head at k. A word for it
    starts at 0, visits every lit lamp and stops at k, so with
    lo = min(0, k, min f) and hi = max(0, k, max f) its length is
    |f| + 2(hi - lo) - |k|: one letter a per lamp, and the shortest walk
    from 0 over [lo, hi] to k (Cleary & Taback, "Dead end words in
    lamplighter groups and other wreath products", 2005).

    So count by (lo, hi, k) with lo <= 0 <= hi and lo <= k <= hi. The lamp
    at lo must be lit exactly when lo < min(0, k), for nothing else reaches
    lo; likewise the lamp at hi when hi > max(0, k). The other lamps of
    [lo, hi] are free: with `forced` lamps fixed and `free` the rest, the
    sphere of radius forced + 2(hi - lo) - |k| + j gains C(free, j).
    """
    sphere = [0] * (r + 1)
    for lo in range(-r, 1):
        for hi in range(0, r + lo + 1):  # hi - lo <= length <= r
            for k in range(lo, hi + 1):
                forced = (lo < min(0, k)) + (hi > max(0, k))
                free = hi - lo + 1 - forced
                base = forced + 2 * (hi - lo) - abs(k)
                for j in range(min(free, r - base) + 1):
                    sphere[base + j] += math.comb(free, j)
    return list(accumulate(sphere))


# -- derived tables and shared lemma checks ------------------------------------


def _derived_steps(
    generators: list[int], action: Callable[[int], np.ndarray]
) -> tuple[list[int], list[np.ndarray]]:
    """References and actions of a derived table's BFS steps, its generators
    and then their inverses; `action(x)` is the right action of element x."""
    forward = [action(g) for g in generators]
    refs = list(range(1, len(forward) + 1))
    return refs + [-r for r in refs], forward + [np.argsort(a).astype(np.int32) for a in forward]


def direct_product(A: FiniteGroupTable, B: FiniteGroupTable) -> FiniteGroupTable:
    """A x B at the table level; element (i, j) has index i*|B| + j."""
    nB = B.n
    gens = [g * nB for g in A.generators] + list(B.generators)

    def action(x: int) -> np.ndarray:
        i, j = divmod(x, nB)
        return (A.right_action(i)[:, None] * nB + B.right_action(j)[None, :]).ravel()

    return FiniteGroupTable(gens, *_derived_steps(gens, action))


def subgroup_table(T: FiniteGroupTable, H: Subgroup) -> FiniteGroupTable:
    """H as a standalone table; word lengths are w.r.t. H's generators."""
    members = list(H.members)
    glob = np.array(members, dtype=np.int32)
    local = np.full(T.n, -1, dtype=np.int32)
    local[glob] = np.arange(len(members), dtype=np.int32)
    gens = local[np.array(H.generators, dtype=np.int32)].tolist()
    elements = [T.elements[g] for g in members] if T.elements is not None else None
    steps = _derived_steps(gens, lambda x: local[T.mul_points(glob, members[x])])
    return FiniteGroupTable(gens, *steps, elements=elements)


def centralizer(T: FiniteGroupTable, S: Subgroup) -> Subgroup:
    """Elements commuting with every generator of S, read off `T.conjugates`."""
    gens = np.array(S.generators, dtype=np.int32)
    fixed = (T.conjugates(gens) == gens[:, None]).all(axis=0)
    return reduce_generators(T, Subgroup(fixed.tobytes(), ()))


def center(T: FiniteGroupTable) -> Subgroup:
    return centralizer(T, whole_group(T))


def gap_hypothesis_holds(counts: Sequence[int], theta: float, C: float) -> bool:
    """Whether gamma(n) <= exp(C n^theta) at every radius n >= 1 of the
    ball sizes `counts` (gamma(0), gamma(1), ...)."""
    return all(math.log(counts[n]) <= C * n**theta for n in range(1, len(counts)))


def chain_datapoint(ch: MilnorChain) -> tuple[bool, int]:
    """Whether each witness y_j lies outside H_(j-1) and the 2^k subset
    products of the witnesses are distinct, and gamma(kL + 2k^2) from the
    table's word-length histogram: the chain's growth datapoint is
    gamma(kL + 2k^2) >= 2^k."""
    fresh = all(y not in H for y, H in zip(ch.witnesses, ch.subgroups))
    products = subset_products(ch.table, list(ch.witnesses))
    radius = ch.k * ch.seed_length + 2 * ch.k**2
    return fresh and len(set(products)) == len(products), ch.table.gamma(radius)


def mu_law_violations(
    tables: Sequence[FiniteGroupTable], power_tables: Sequence[FiniteGroupTable]
) -> tuple[int, list[str]]:
    """The properties lemma, by `mu_fast`: for each table G, mu(H) <= mu(G)
    over its soluble subgroups H, and mu(G/N) <= mu(G) <= mu(N) + mu(G/N)
    over its normal subgroups N; for each power table, mu(G x G) = mu(G).
    Returns the number of pairs compared and the laws broken."""
    violations: list[str] = []
    pairs = 0
    for G in tables:
        mu_g = mu_fast(G)[0]
        for H in soluble_subgroups(G):
            pairs += 1
            if mu_fast(G, start=H)[0] > mu_g:
                violations.append(f"subgroup law: order {H.order} in order {G.n}")
        for N in normal_subgroups(G).subgroups:
            mu_q, mu_n = mu_fast(quotient(G, N).table)[0], mu_fast(G, start=N)[0]
            pairs += 2
            if mu_q > mu_g:
                violations.append(f"quotient law: |N|={N.order} in order {G.n}")
            if mu_g > mu_n + mu_q:
                violations.append(f"extension law: |N|={N.order} in order {G.n}")
    for G in power_tables:
        pairs += 1
        if mu_fast(direct_product(G, G))[0] != mu_fast(G)[0]:
            violations.append(f"power law: order {G.n} squared")
    return pairs, violations


def deep_derived_term_is_nilpotent(T: FiniteGroupTable, n: int) -> bool:
    """Whether T is soluble and its derived-series term at the integer
    derived-length bound rho_int_bound(n) for soluble linear groups of
    degree n (the last term, if the series is shorter) is nilpotent."""
    series = derived_series(T)
    term = series[min(rho_int_bound(n), len(series) - 1)]
    return series[-1].is_trivial() and lower_central_series(T, start=term)[-1].is_trivial()
