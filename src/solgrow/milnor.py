"""Conjugate-chain machinery and growth-lower-bound certificates.

The chain construction: Y_i is the set of conjugates of the seed set Y by
elements of length at most i; H_i = <Y_i> is an ascending chain that
stabilizes exactly at the normal closure of Y, and any stabilization at
step k yields a generating set Z = Y_k of the closure with
len(Z) <= len(Y) + 2k. Witnesses y_i in Y_i \\ H_{i-1} have pairwise
distinct subset products, giving the growth datapoint
gamma(kL + 2k^2) >= 2^k.

The certificate pipeline walks the optimal derived/gamma_3 series of a
finite quotient down to its self-centralizing minimal normal subgroup V,
tracks generator lengths step by step, picks short elements projecting to
independent vectors of V, and emits a machine-checkable datapoint
gamma(L*n) >= 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bounds import _echelon_insert
from .errors import InvariantViolated, NotSelfCentralizing, RankDeficient, SeriesMismatch
from .fields import _prime_power
from .mu import ABELIAN, MuValue, mu_fast
from .table import (
    FiniteGroupTable,
    Subgroup,
    _Closure,
    normal_closure,
    trivial_subgroup,
)

MAX_PRODUCT_WITNESSES = 20


@dataclass
class MilnorChain:
    """Ascending conjugate chain for one (table, seed set) pair."""

    table: FiniteGroupTable
    seeds: tuple[int, ...]
    levels: list[tuple[int, ...]]        # Y_0..Y_k (+ the repeat level)
    subgroups: list[Subgroup]            # H_0..H_{k+1} with H_k = H_{k+1}
    k: int                               # stabilization index
    witnesses: tuple[int, ...]           # y_1..y_k, first-in-BFS-order
    seed_length: int                     # L = max length over Y
    closure_length: int                  # exact max length over Z = Y_k

    @property
    def generating_set(self) -> tuple[int, ...]:
        return self.levels[self.k]


def milnor_chain(T: FiniteGroupTable, Y: list[int]) -> MilnorChain:
    """Build the full conjugate chain for seeds Y, with verified stabilization.

    Y_{i-1} lies in Y_i, so one closure grows in place along the chain:
    H_i is H_{i-1} with the new conjugates in Y_i adjoined.
    """
    seeds = list(dict.fromkeys(Y))
    wl = T.word_length
    by_len = T.elements_by_length()
    conj = T.conjugates(seeds)
    level = sorted(seeds)
    levels: list[tuple[int, ...]] = []
    subgroups: list[Subgroup] = []
    C = _Closure(T)
    while True:
        order = C.order
        for y in level:
            C.add(y)
        levels.append(tuple(level))
        subgroups.append(C.subgroup(y for y in level if y))
        if len(levels) > 1 and C.order == order:
            break
        if len(levels) < len(by_len):
            level = sorted(set(level).union(conj[:, by_len[len(levels)]].ravel().tolist()))
    k = len(levels) - 2
    closure = normal_closure(T, seeds)
    if subgroups[k].mask != closure.mask:
        raise InvariantViolated("chain missed the closure")
    witnesses = []
    for j in range(1, k + 1):
        y_j = next(y for y in levels[j] if y not in subgroups[j - 1])
        witnesses.append(y_j)
    L = max((wl[y] for y in seeds), default=0)
    lZ = max((wl[z] for z in levels[k]), default=0)
    if lZ > L + 2 * k:
        raise InvariantViolated("closure generating set is longer than L + 2k")
    return MilnorChain(
        table=T,
        seeds=tuple(seeds),
        levels=levels,
        subgroups=subgroups,
        k=k,
        witnesses=tuple(witnesses),
        seed_length=L,
        closure_length=lZ,
    )


def subset_products(T: FiniteGroupTable, elements: list[int]) -> list[int]:
    """All 2^k products e1^eps1 ... ek^epsk, in epsilon-lex order."""
    if len(elements) > MAX_PRODUCT_WITNESSES:
        raise ValueError(f"too many witnesses ({len(elements)}) for exhaustive products")
    prods = [0]
    for y in elements:
        prods = prods + [T.mul(p, y) for p in prods]
    return prods


def _pair_commutators(T: FiniteGroupTable, xs: tuple[int, ...]) -> list[int]:
    pairs = dict.fromkeys(T.comm(a, b) for a in xs for b in xs)
    return [c for c in pairs if c != 0]


def _triple_commutators(T: FiniteGroupTable, xs: tuple[int, ...]) -> list[int]:
    pairs = _pair_commutators(T, xs)
    triples = dict.fromkeys(T.comm(c, z) for c in pairs for z in xs)
    return [t for t in triples if t != 0]


def _recurrence_constant(lengths: list[int], factors: list[int]) -> float:
    """Smallest C >= 0 with L_i <= a_i L_{i-1} + C sqrt(L_{i-1}) at every step.

    L_i are `lengths` and a_i = factors[i - 1]; steps from L_{i-1} = 0 are
    skipped.
    """
    rec_const = 0.0
    for i in range(1, len(lengths)):
        prev = lengths[i - 1]
        if prev > 0:
            excess = lengths[i] - factors[i - 1] * prev
            rec_const = max(rec_const, excess / math.sqrt(prev))
    return rec_const


# -- certificate pipeline -----------------------------------------------------


@dataclass
class Certificate:
    """Growth-lower-bound witness: n short elements with distinct products."""

    group_order: int
    normal_order: int
    p: int
    rank: int
    step_kinds: list[str]
    step_orders: list[int]
    cost_word: list[int]
    mu: MuValue
    b_lengths: list[int]
    b_words: list[list[int]]
    length_bound: int                    # L = max b length
    radius: int                          # L * n
    bound: int                           # 2^n
    gamma_at_radius: int
    vacuous: bool
    checks: dict
    step_lengths: list[int] = field(default_factory=list)
    recurrence_constant: float = 0.0      # smallest C with L_i <= a_i L_{i-1} + C sqrt(L_{i-1})
    chain_constant: float = 0.0           # smallest C' with L_i <= C' a_1 .. a_{i+1}
    transcript: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "group_order": self.group_order,
            "normal_order": self.normal_order,
            "p": self.p,
            "rank": self.rank,
            "step_kinds": list(self.step_kinds),
            "step_orders": list(self.step_orders),
            "cost_word": list(self.cost_word),
            "mu": self.mu.as_dict(),
            "b_lengths": list(self.b_lengths),
            "b_words": [list(w) for w in self.b_words],
            "length_bound": self.length_bound,
            "radius": self.radius,
            "bound": self.bound,
            "gamma_at_radius": self.gamma_at_radius,
            "vacuous": self.vacuous,
            "checks": dict(self.checks),
            "step_lengths": list(self.step_lengths),
            "recurrence_constant": self.recurrence_constant,
            "chain_constant": self.chain_constant,
        }
        if self.transcript is not None:
            out["transcript"] = self.transcript
        return out


def _elementary_abelian_coords(T: FiniteGroupTable, V: Subgroup, p: int):
    """Greedy basis of V and coordinates of every member over F_p."""
    span: dict[int, tuple[int, ...]] = {0: ()}
    basis: list[int] = []
    for v in V.members:
        if v in span:
            continue
        basis.append(v)
        new: dict[int, tuple[int, ...]] = {}
        for e, coords in span.items():
            new[e] = coords + (0,)
            x = e
            for j in range(1, p):
                x = T.mul(x, v)
                new[x] = coords + (j,)
        span = new
    # The span of commuting basis elements of order p has p^len(basis)
    # members and contains V, so these three facts make it exactly V.
    if (
        p ** len(basis) != V.order
        or any(T.order_of(b) != p for b in basis)
        or any(T.comm(a, b) != 0 for i, a in enumerate(basis) for b in basis[i + 1 :])
    ):
        raise InvariantViolated("subgroup is not elementary abelian")
    return basis, span


def certify_growth_lower_bound(
    G: FiniteGroupTable,
    N: Subgroup | None = None,
    emit_transcript: bool = False,
) -> Certificate:
    """Run the whole pipeline on a finite group G with normal subgroup N.

    Finds a self-centralizing minimal normal V of G/N, walks the optimal
    modified series down to V with length-tracked generating sets, selects
    n short elements with independent images in V, verifies the 2^n subset
    products, and checks gamma(L*n) >= 2^n against an independently
    computed growth table of G. Raises InvariantViolated, naming them, if
    any of the certificate's checks is false.
    """
    from .soluble import _is_self_centralizing, minimal_normal_subgroups
    from .table import quotient

    if N is None or N.is_trivial():
        Gbar = G
        lift = None
        n_order = 1
    else:
        Q = quotient(G, N)
        Gbar = Q.table
        lift = Q
        n_order = N.order

    # A self-centralizing minimal normal subgroup is the only one (see
    # `solgrow.soluble`), so only a single minimal normal V is tested.
    minimal = minimal_normal_subgroups(Gbar)
    if len(minimal) != 1 or not _is_self_centralizing(Gbar, trivial_subgroup(Gbar), minimal[0]):
        raise NotSelfCentralizing("no self-centralizing minimal normal subgroup")
    V = minimal[0]
    pr = _prime_power(V.order)
    if pr is None:
        raise InvariantViolated("socle is not a p-group")
    p, rank = pr

    # The optimal derived/gamma_3 series of Gbar, which must end at V.
    series = mu_fast(Gbar)[1]
    if series.chain[-2].mask != V.mask:
        raise SeriesMismatch("canonical series does not end at the self-centralizing socle")
    cost_word = series.cost_word()
    k = len(series.kinds)

    # Length-tracked generating sets X_0 .. X_{k-1} along the series.
    X = tuple(g for g in dict.fromkeys(Gbar.generators) if g != 0)
    step_lengths = [max((Gbar.word_length[x] for x in X), default=0)]
    for i in range(1, k):
        seeds = (
            _pair_commutators(Gbar, X)
            if series.kinds[i - 1] == ABELIAN
            else _triple_commutators(Gbar, X)
        )
        chain = milnor_chain(Gbar, seeds)
        if chain.subgroups[chain.k].mask != series.chain[i].mask:
            raise SeriesMismatch(f"step {i} closure differs from the canonical term")
        X = chain.generating_set
        step_lengths.append(chain.closure_length)

    basis, coords = _elementary_abelian_coords(Gbar, V, p)
    rows: list[list[int]] = []
    chosen: list[int] = []
    for cand in sorted(X, key=lambda x: (Gbar.word_length[x], x)):
        if _echelon_insert(rows, coords[cand], p):
            chosen.append(cand)
        if len(chosen) == rank:
            break
    if len(chosen) < rank:
        raise RankDeficient("generating set does not span the socle")

    b_lengths = [Gbar.word_length[b] for b in chosen]
    b_words = [Gbar.word(b) for b in chosen]
    L = max(b_lengths) if b_lengths else 0
    radius = L * rank
    prods = subset_products(Gbar, chosen)
    distinct = len(set(prods)) == len(prods)

    # Independent growth check on G itself (lifted words have length <= L).
    if G.gen_set is not None:
        from .growth import growth_table

        # A ball in G never exceeds |G|, so this cap cannot truncate it.
        gamma_val = growth_table(G.gen_set, radius, max_elements=G.n).gamma(radius)
        gamma_source = "independent_bfs"
    else:
        gamma_val = G.gamma(radius)
        gamma_source = "word_length_histogram"

    checks = {
        "distinct_products": distinct,
        "independent_images": len(chosen) == rank,
        "datapoint": gamma_val >= 2**rank,
        "gamma_source": gamma_source,
        "cost_word_product": math.prod(cost_word) == 4 ** sum(
            1 for kd in series.kinds if kd == ABELIAN
        ) * 10 ** sum(1 for kd in series.kinds if kd != ABELIAN),
    }
    failed = [name for name, ok in checks.items() if ok is False]
    if failed:
        raise InvariantViolated(f"certificate checks failed: {', '.join(failed)}")

    # Measured constants: smallest values making the step recurrence
    # L_i <= a_i L_{i-1} + C sqrt(L_{i-1}) and the chain bound
    # L_i <= C' a_1 .. a_{i+1} hold on this run.
    rec_const = _recurrence_constant(step_lengths, cost_word)
    chain_const = 0.0
    for i in range(len(step_lengths)):
        denom = math.prod(cost_word[: min(i + 1, len(cost_word))])
        chain_const = max(chain_const, step_lengths[i] / denom)
    transcript = None
    if emit_transcript and rank <= 10:
        transcript = {
            "products": [int(x) for x in prods],
            "b_coordinates": [list(coords[b]) for b in chosen],
            "basis": [int(x) for x in basis],
        }
    if lift is not None:
        # Words in the quotient lift letter-by-letter to G.
        for w, blen in zip(b_words, b_lengths):
            lifted = G.evaluate_word(w)
            if G.word_length[lifted] > blen:
                raise InvariantViolated("lifted word is longer than its quotient word")

    return Certificate(
        group_order=G.n,
        normal_order=n_order,
        p=p,
        rank=rank,
        step_kinds=list(series.kinds),
        step_orders=[S.order for S in series.chain],
        cost_word=cost_word,
        mu=series.cost,
        b_lengths=b_lengths,
        b_words=b_words,
        length_bound=L,
        radius=radius,
        bound=2**rank,
        gamma_at_radius=gamma_val,
        vacuous=radius >= G.diameter(),
        checks=checks,
        step_lengths=step_lengths,
        recurrence_constant=rec_const,
        chain_constant=chain_const,
        transcript=transcript,
    )
