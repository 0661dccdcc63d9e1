"""Chief series, self-centralizing chief rank, and supersolubility.

The self-centralizing chief rank is computed by quantifying over all
quotients G/N (N ranging over the full normal lattice) and inspecting the
minimal normal subgroups of each quotient. This deliberately
over-approximates "all chief factors up to equivalence": every chief
factor arises in some quotient, so the maximum self-centralizing rank is
found without implementing the equivalence relation on chief factors.
Only quotients with one minimal normal subgroup are tested: another one
K/N beside a self-centralizing M/N would meet it in N, so [K, M] <= N and
K/N would lie in C(M/N) = M/N.

The normal lattice is computed on sets of conjugacy classes, since a
normal subgroup is a union of classes. Every normal subgroup is the join
of the atoms (normal closures) of the classes it contains, so joining
each lattice member with each atom it does not contain yields the
complete lattice. An atom, and the join of a member with an atom, is one
walk over the classes of its result (`_grow_classes`). The lattice keeps
each member's joins, among which lie all of its covers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CapExceeded, InvariantViolated, NotSoluble, TrivialGroup
from .fields import _prime_power
from .table import (
    FiniteGroupTable,
    Subgroup,
    conjugacy_classes,
    derived_series,
    is_soluble,
    nilpotency_class,
    reduce_generators,
    trivial_subgroup,
    whole_group,
)

LATTICE_CAP = 20_000
SUBGROUP_ENUM_CAP = 10_000
# int32 entries in one prime-extension conjugation walk (16 MiB)
CONJ_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class ChiefFactorRecord:
    """One factor M/N of a chief series, with its rank data."""

    below: Subgroup   # N
    above: Subgroup   # M
    p: int
    rank: int
    self_centralizing: bool

    @property
    def order(self) -> int:
        return self.p**self.rank


@dataclass
class NormalLattice:
    """All normal subgroups of a group, sorted by (order, members); `above[i]`
    holds the ascending indices of member i's joins with the atoms outside it."""

    subgroups: list[Subgroup]
    above: list[tuple[int, ...]]

    def covers(self, i: int) -> list[int]:
        """Ascending indices of the minimal members strictly above member i.

        A cover is member i's join with any atom in it outside i, so it is
        in `above[i]`. Containment among the joins is read from the index
        alone: for joins k != j of i, k < j exactly when j is in `above[k]`,
        since j = i v <C> with <C> not in k gives j = k v <C>. So the covers
        are the joins of i that are no join of another."""
        above = self.above
        higher = set().union(*(above[k] for k in above[i]))
        return [j for j in above[i] if j not in higher]

    def __len__(self) -> int:
        return len(self.subgroups)


def normal_subgroups(T: FiniteGroupTable) -> NormalLattice:
    """Complete normal lattice, computed on conjugacy-class sets."""
    if T.n > LATTICE_CAP:
        raise CapExceeded(f"group order {T.n} exceeds lattice cap {LATTICE_CAP}")
    return normal_subgroups_within(T, whole_group(T))


def minimal_normal_subgroups(T: FiniteGroupTable) -> list[Subgroup]:
    """Minimal nontrivial normal subgroups."""
    lat = normal_subgroups(T)
    return [lat.subgroups[j] for j in lat.covers(0)]


def normal_subgroups_within(T: FiniteGroupTable, H: Subgroup) -> NormalLattice:
    """The lattice of subgroups of H normal in H, in parent-table indices.

    Works on sets of H-classes, each held as a mask of one byte per class.
    The atom of a class C is the normal closure <C>: {1} grown under right
    multiplication by C, walked once per power class (the classes of the
    generators of one cyclic <x>). The join of a member A with the atom <C>
    is A grown the same way. Starting from the atoms, each new member is
    joined with every atom it does not contain; every normal subgroup is a
    join of atoms, so this reaches all of them, and each member keeps its
    joins.
    Member masks (each class mask gathered through `class_of`) and short
    generators (`reduce_generators`) are built once per distinct class set.
    """
    classes = conjugacy_classes(T, H)
    class_of = [len(classes)] * T.n  # outside H: the 0 byte after a class mask
    for k, cls in enumerate(classes):
        for x in cls:
            class_of[x] = k
    found = {bytes([1]) + bytes(len(classes) - 1): 0}  # class mask -> discovery number
    joins = [array("i")]  # discovery number -> discovery numbers of its joins
    queue: list[tuple[bytes, list[int], array]] = []  # (class mask, its classes, its joins)

    def number(mask: bytes, inside: list[int]) -> int:
        """The discovery number of a member, queued when new."""
        j = found.setdefault(mask, len(joins))
        if j == len(joins):
            joins.append(array("i"))
            queue.append((mask, inside, joins[j]))
        return j

    atoms: list[tuple[int, memoryview]] = []  # (class, right action of its least member)
    walked = bytearray(len(classes))  # classes whose atom is already known
    for k in range(1, len(classes)):
        if walked[k]:
            continue
        x = classes[k][0]
        row = memoryview(T.right_action(x))
        # x^e for e prime to the order of x generates <x>, so its class has
        # the same atom: walk one class per power class.
        powers = [x]
        while (y := row[powers[-1]]) != 0:
            powers.append(y)
        for e, y in enumerate(powers, 1):
            if gcd(e, len(powers) + 1) == 1:
                walked[class_of[y]] = 1
        new = len(joins)
        if number(*_grow_classes(classes, class_of, [0], row)) == new:
            atoms.append((k, row))
            joins[0].append(new)
    while queue:
        A, seeds, up = queue.pop()
        for k, row in atoms:
            if not A[k]:
                up.append(number(*_grow_classes(classes, class_of, seeds, row)))
    gather = np.array(class_of)
    subs = [
        reduce_generators(T, Subgroup(np.frombuffer(S + b"\0", np.uint8)[gather].tobytes(), ()))
        for S in found
    ]
    order = sorted(range(len(subs)), key=lambda j: (-subs[j].order, subs[j].mask), reverse=True)
    rank = {j: i for i, j in enumerate(order)}
    return NormalLattice(
        [subs[j] for j in order], [tuple(sorted({rank[x] for x in joins[j]})) for j in order]
    )


def _grow_classes(
    classes: list[tuple[int, ...]], class_of: list[int], start: list[int], row: memoryview
) -> tuple[bytes, list[int]]:
    """The normal set of classes `start` grown under right multiplication by C.

    `row` is the right action of x, the least member of C. For a normal set
    S, the classes of S * C are those of S * x, since s * x^h is conjugate
    by h^-1 to s^(h^-1) * x. So scanning each class of the result once
    against one row suffices. Returns the result as a mask of one byte per
    class and as a list of its classes.
    """
    inside = bytearray(len(classes))
    for k in start:
        inside[k] = 1
    out = list(start)
    for k in out:  # out grows while it is walked
        for y in classes[k]:
            j = class_of[row[y]]
            if not inside[j]:
                inside[j] = 1
                out.append(j)
    return bytes(inside), out


def _factor_rank(T: FiniteGroupTable, below: Subgroup, above: Subgroup) -> tuple[int, int]:
    """(p, r) with |above/below| = p^r; checks the factor is elementary abelian."""
    m = above.order // below.order
    pr = _prime_power(m)
    if pr is None:
        raise NotSoluble(f"chief factor of non-prime-power order {m}")
    p, r = pr
    gens = above.generators
    for i, a in enumerate(gens):
        if pow_in(T, a, p) not in below:
            raise InvariantViolated("chief factor is not elementary abelian (exponent)")
        for b in gens[i + 1 :]:
            if T.comm(a, b) not in below:
                raise InvariantViolated("chief factor is not abelian")
    return p, r


def pow_in(T: FiniteGroupTable, g: int, e: int) -> int:
    x = 0
    for _ in range(e):
        x = T.mul(x, g)
    return x


def _is_self_centralizing(
    T: FiniteGroupTable, below: Subgroup, above: Subgroup
) -> bool:
    """Whether M/N equals its centralizer in G/N.

    The preimage of C_{G/N}(M/N) is {g : [g, m] in N for each generator m
    of M}; the factor is self-centralizing iff that preimage is exactly M.
    Row i of the conjugates of the inverse generators holds (m^-1)^g, and
    [g, m] = (m^-1)^g * m.
    """
    nmask = below.flags
    gens = above.generators
    conj = T.conjugates([T.inv_idx[m] for m in gens])
    pre = np.ones(T.n, dtype=bool)
    for m, row in zip(gens, conj):
        pre &= nmask[T.right_action(m)[row]]
    return np.array_equal(pre, above.flags)


def chief_series(
    T: FiniteGroupTable,
    lattice: NormalLattice | None = None,
    reverse_tiebreak: bool = False,
    *,
    soluble: bool | None = None,
) -> list[ChiefFactorRecord]:
    """A chief series 1 = G_0 < ... < G_m = G with factor data.

    Deterministic: at each step the minimal normal subgroup of G/G_i with
    the smallest (order, members) key is chosen; reverse_tiebreak picks the
    largest key instead (used to probe Jordan-Hoelder invariance).
    `soluble` is the caller's is_soluble(T), computed here if not given.
    """
    if not (is_soluble(T) if soluble is None else soluble):
        raise NotSoluble("chief series factor data requires a soluble group")
    lat = lattice if lattice is not None else normal_subgroups(T)
    pick = max if reverse_tiebreak else min
    subs = lat.subgroups
    i = 0
    records = []
    while subs[i].order < T.n:
        j = pick(lat.covers(i))
        N, M = subs[i], subs[j]
        p, r = _factor_rank(T, N, M)
        records.append(
            ChiefFactorRecord(
                below=N,
                above=M,
                p=p,
                rank=r,
                self_centralizing=_is_self_centralizing(T, N, M),
            )
        )
        i = j
    return records


def _selfc_factors(T: FiniteGroupTable, lat: NormalLattice):
    """Self-centralizing chief factors (N, M) of every proper quotient G/N.

    Only an N with a single cover can have one (see the module docstring).
    """
    subs = lat.subgroups
    for i, N in enumerate(subs):
        covers = lat.covers(i)
        if len(covers) == 1 and _is_self_centralizing(T, N, subs[covers[0]]):
            yield N, subs[covers[0]]


def sc_chief_rank(
    T: FiniteGroupTable,
    lattice: NormalLattice | None = None,
    *,
    soluble: bool | None = None,
) -> int:
    """Maximum rank of self-centralizing chief factors over all quotients.

    `soluble` is the caller's is_soluble(T), computed here if not given.
    """
    if T.n == 1:
        raise TrivialGroup("self-centralizing chief rank needs a nontrivial group")
    if not (is_soluble(T) if soluble is None else soluble):
        raise NotSoluble("self-centralizing chief rank requires a soluble group")
    lat = lattice if lattice is not None else normal_subgroups(T)
    best = max((_factor_rank(T, N, M)[1] for N, M in _selfc_factors(T, lat)), default=0)
    if best < 1:
        raise InvariantViolated("soluble group has no self-centralizing chief factor")
    return best


def is_supersoluble(
    T: FiniteGroupTable,
    lattice: NormalLattice | None = None,
    *,
    rank: int | None = None,
    series: list[ChiefFactorRecord] | None = None,
) -> bool:
    """True iff the self-centralizing chief rank is 1.

    Cross-checked against the direct definition: a chief series in which
    every factor has prime order. `rank` and `series` are the caller's
    sc_chief_rank and chief_series of T, computed here if not given.
    """
    if rank is None or series is None:
        lat = lattice if lattice is not None else normal_subgroups(T)
        soluble = is_soluble(T)
        if rank is None:
            rank = sc_chief_rank(T, lat, soluble=soluble)
        if series is None:
            series = chief_series(T, lat, soluble=soluble)
    by_rank = rank == 1
    if by_rank != all(rec.rank == 1 for rec in series):
        raise InvariantViolated("rank-1 criterion disagrees with cyclic chief factors")
    return by_rank


# -- full subgroup enumeration (soluble subgroups, cyclic extensions) --------


def _conjugation_blocks(T: FiniteGroupTable, frontier: list[Subgroup]):
    """Runs of the frontier, in order, with their generators' conjugates.

    A run grows while its distinct generators fit CONJ_BLOCK_ENTRIES int32
    entries, so a round is one `T.conjugates` walk unless the frontier is
    very large. Yields (run, pos, conj): row pos[x] of conj holds g^-1 x g
    for every g.
    """
    width = max(1, CONJ_BLOCK_ENTRIES // T.n)
    run: list[Subgroup] = []
    pos: dict[int, int] = {}
    for H in frontier:
        if run and len(pos.keys() | H.generators) > width:
            yield run, pos, T.conjugates(list(pos))
            run, pos = [], {}
        run.append(H)
        for x in H.generators:
            pos.setdefault(x, len(pos))
    if run:
        yield run, pos, T.conjugates(list(pos))


def _prime_extensions(T: FiniteGroupTable, frontier: list[Subgroup]):
    """The subgroups <H, g> of prime index over H, for each H of the frontier.

    Each round conjugates the distinct generators of the whole frontier in
    one walk (blocks of at most CONJ_BLOCK_ENTRIES entries) and reads every
    H's normalizer from its generators' rows. Each g then claims the
    elements whose extension it stands for. When K = <H, g> has prime
    index over H, every g' in K \\ H generates the same K over H (nothing
    lies strictly between), so all of K is claimed. For composite index
    only the coset Hg is, since the prime-index subgroups between H and K
    must still be found. Elements are visited in index order either way,
    so each K is first reached from the same (H, g) as one coset at a time
    would reach it, and keeps the same generators. Yields each K once per
    H that reaches it, frontier by frontier.
    """
    for run, pos, conj in _conjugation_blocks(T, frontier):
        for H in run:
            hmask = H.flags
            hpoints = np.flatnonzero(hmask).astype(np.int32)
            # g normalizes H iff it conjugates each generator of H into H.
            normalizer = hmask[conj[[pos[x] for x in H.generators]]].all(axis=0)
            seen = hmask.copy()
            for g in np.flatnonzero(normalizer).tolist():
                if seen[g]:
                    continue
                # g normalizes H, so <H, g> is H, Hg, Hg^2, ..., and the
                # index of H in it is the least m with g^m in H.
                x, m = g, 1
                while not H.mask[x]:
                    x, m = T.mul(x, g), m + 1
                pr = _prime_power(m)
                if pr is None or pr[1] != 1:
                    seen[T.mul_points(hpoints, g)] = True  # the coset Hg
                    continue
                coset, kmask = hpoints, hmask.copy()
                for _ in range(m - 1):
                    coset = T.mul_points(coset, g)
                    kmask[coset] = True
                seen |= kmask
                yield Subgroup(kmask.tobytes(), (*H.generators, g))


def _check_enum_cap(T: FiniteGroupTable) -> None:
    if T.n > SUBGROUP_ENUM_CAP:
        raise CapExceeded(f"group order {T.n} exceeds subgroup enumeration cap {SUBGROUP_ENUM_CAP}")


def _by_order(subs) -> list[Subgroup]:
    return sorted(subs, key=lambda S: (-S.order, S.mask), reverse=True)


def soluble_subgroups(T: FiniteGroupTable) -> list[Subgroup]:
    """All soluble subgroups of T, by prime cyclic extensions.

    Every soluble subgroup has a subnormal series with prime cyclic
    factors, so repeatedly extending each known subgroup H by elements g of
    its normalizer whose coset gH has prime order finds them all
    (`_prime_extensions`). For a soluble T this is the complete subgroup
    list.
    """
    _check_enum_cap(T)
    triv = trivial_subgroup(T)
    found: dict[bytes, Subgroup] = {triv.mask: triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for K in _prime_extensions(T, frontier):
            if K.mask not in found:
                found[K.mask] = K
                nxt.append(K)
        frontier = nxt
    return _by_order(found.values())


def soluble_subgroup_classes(T: FiniteGroupTable) -> list[Subgroup]:
    """One representative per conjugacy class of soluble subgroups of T.

    Prime cyclic extension of representatives only (Neubueser 1960; Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, 4.6).
    Each new K is the first of its class reached; its class is walked at
    once as masks under conjugation by T's generators, so no conjugate of
    K is ever extended. Complete: if K' has prime index in K and K'^x is
    the representative H, then K^x = <H, g^x> for any g in K \\ K', with
    g^x in the normalizer of H, and K^x lies in K's class. Representatives
    are sorted as `soluble_subgroups` sorts its list.
    """
    _check_enum_cap(T)
    # the mask of S^g holds y exactly when g y g^-1 is in S
    maps = [T.conjugation_action(T.inv_idx[g]) for g in T.generators]
    triv = trivial_subgroup(T)
    known = {triv.mask}  # every mask of every class reached
    reps: list[Subgroup] = []
    frontier = [triv]
    while frontier:
        reps += frontier
        nxt = []
        for K in _prime_extensions(T, frontier):
            if K.mask not in known:
                known.add(K.mask)
                walk = [K.flags]
                for S in walk:  # walk grows while it is read
                    for m in maps:
                        mask = S[m].tobytes()
                        if mask not in known:
                            known.add(mask)
                            walk.append(np.frombuffer(mask, dtype=bool))
                nxt.append(K)
        frontier = nxt
    return _by_order(reps)


def analyze_record(T: FiniteGroupTable) -> dict:
    """Full analysis record for the CLI: order, series data, chief data."""
    ds = derived_series(T)
    soluble = ds[-1].is_trivial()
    rec: dict = {"order": T.n, "soluble": soluble}
    rec["derived_length"] = len(ds) - 1 if soluble else None
    ncl = nilpotency_class(T)
    rec["nilpotent"] = ncl is not None
    rec["nilpotency_class"] = ncl
    if soluble and T.n > 1:
        lat = normal_subgroups(T)
        series = chief_series(T, lat, soluble=True)
        rank = sc_chief_rank(T, lat, soluble=True)
        rec["chief_factors"] = [
            {
                "p": r.p,
                "rank": r.rank,
                "order": r.order,
                "self_centralizing": r.self_centralizing,
            }
            for r in series
        ]
        rec["sc_chief_rank"] = rank
        rec["supersoluble"] = is_supersoluble(T, rank=rank, series=series)
    else:
        rec["chief_factors"] = None
        rec["sc_chief_rank"] = None
        rec["supersoluble"] = None
    return rec
