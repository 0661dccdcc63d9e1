"""Fully enumerated finite groups with exact Cayley word lengths.

One level-synchronous element BFS, `element_bfs`, serves enumeration here
and the growth tables of `solgrow.growth` that cannot be counted sphere by
sphere on rows. It checks the element cap as it goes: a new element that
would take the count past the cap raises CapExceeded, carrying the size of
the last complete ball. Permutation and F_p-matrix levels are numpy row
arrays deduplicated on exact row keys (`solgrow.rowbfs`), in one pass.
Other variants stream element objects through an encoding -> index dict.

A FiniteGroupTable indexes every element of a finite group; index 0 is the
identity and word_length[i] is the exact BFS distance from the identity
over the table's BFS steps (the generators, then their inverses). Every
table, whether enumerated from concrete GroupElements or derived as a
quotient, multiplies the same way: it stores the right action of each BFS
step on indices, R[s][i] = index of i * s, as one (steps, n) int32 array.
An enumerated table takes its word lengths, BFS parents and levels
(contiguous index ranges) from the element BFS; a derived one runs one BFS
over R. Inverse indices come from one pass down the BFS levels: x = t *
rest(x), t the first step of x's geodesic, and rest(x) = rest(p) * s for
x's parent p and parent step s, so x^-1 = rest(x)^-1 * t^-1 is read off a
level already done. Word lengths and inverse indices are read-only int32
memoryviews, whose items are ints. No table stores the right action of an
element: i * j walks j's BFS geodesic through R, and the product of a
point set by j, `mul_points(xs, j)`, walks it on the |xs| points alone, so
a caller that reads only a subgroup's or a coset's points forms no n-wide
action. A table holds no encoding -> index dict: its order n is the length
of its step actions. Perm and matfp tables keep their elements as rows
(one byte an entry up to degree or p 256; the derived tables of
`solgrow.constructions` write them on first read) and build each element
object on access.

A Subgroup is one member mask, a byte per element of its table, with a
generator list. Masks of equal member count sort in the reverse order of
their ascending member tuples (the set holding the first index where two
masks differ has the smaller tuple), so subgroups sort by (order, members)
without building member tuples.

Orbits under index maps (subgroup closure, conjugacy classes, and the
orbit tests of `solgrow.bounds` and `solgrow.smallcases`) share one
breadth-first walk, `_orbit`. Closures grow in place (`_Closure`) on a
member mask: each generator adjoined walks only the points it newly
reaches, so no subgroup is rebuilt from the identity. A small closure
walks them point by point (`_orbit`, over point maps that walk a geodesic
per point); from COSET_WALK_MIN members on, it walks right cosets of the
old closure, one point-set product each (coset enumeration in the manner
of Dimino). Conjugates of a few elements by the whole group (normalizers,
the self-centralizing test and conjugate chains) come from one walk down
the BFS levels, `conjugates`.

Tables are immutable after construction; all queries are pure reads (the
step conjugation maps are built on first use).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .elements import GenSet, GroupElement, RowElements
from .errors import CapExceeded, InvariantViolated, NotNormal
from .rowbfs import _row_levels

DEFAULT_CAP = 2_000_000


class FiniteGroupTable:
    """Indexed finite group. Do not mutate after construction.

    The BFS steps are given in order by their signed generator references
    (`step_refs`: +k is generator k-1, -k its inverse) and their right
    actions, one int32 array per step or one (steps, n) array, which is
    kept: a step's action maps index i to the index of i * step. The order
    n is the length of the actions; a table with no steps is the trivial
    group. `enumerate_group` passes the BFS that found the table as `bfs`
    (as `_cayley_bfs` returns it), so that it runs no BFS of its own.
    """

    def __init__(
        self,
        generators: list[int],
        step_refs: Sequence[int],
        actions: Sequence[np.ndarray],
        elements: Sequence[GroupElement] | None = None,
        gen_set: GenSet | None = None,
        bfs: tuple | None = None,
    ):
        self.generators = list(generators)
        self.elements = elements
        self.gen_set = gen_set
        self.step_refs = list(step_refs)
        self.n = len(actions[0]) if len(actions) else 1
        if any(len(a) != self.n for a in actions):
            raise InvariantViolated("step actions differ in length")
        self._actions = np.asarray(actions, np.int32).reshape(len(actions), self.n)
        wl, parent, parent_step, self._levels = bfs or _cayley_bfs(self._actions, self.n)
        self._inverse = _inverse_indices(
            self._actions, self.step_refs, parent, parent_step, self._levels
        )
        # int32 buffers are read through memoryviews, whose items are ints.
        self.word_length = memoryview(wl).toreadonly()
        self.inv_idx = memoryview(self._inverse).toreadonly()
        self._parent = memoryview(parent).toreadonly()
        self._parent_step = memoryview(parent_step).toreadonly()
        self._action_views = [memoryview(a).toreadonly() for a in self._actions]
        # Conjugation map of each step, None until first used.
        self._step_conj: np.ndarray | None = None

    # -- products ---------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        actions = self._action_views
        for s in self._geodesic(j):
            i = actions[s][i]
        return i

    def conj(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv_idx[g], x), g)

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.mul(self.inv_idx[a], self.inv_idx[b]), a), b)

    def order_of(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.mul(x, i)
            k += 1
        return k

    _rows = None  # read by the benchmark tracer until ROADMAP J replaces its metrics

    def ensure_dense(self) -> bool:
        """Returns False and builds nothing; the benchmark tracer wraps it (ROADMAP J)."""
        return False

    def right_action(self, x: int) -> np.ndarray:
        """int32 array mapping index i to the index of i * x."""
        return self.mul_points(np.arange(self.n, dtype=np.int32), x)

    def mul_points(self, xs: np.ndarray, g: int) -> np.ndarray:
        """int32 indices of x * g for each index x of the int32 array xs.

        A walk of g's geodesic through the step actions on the |xs| points
        alone (xs itself when g = 0).
        """
        for s in self._geodesic(g):
            xs = self._actions[s][xs]
        return xs

    def point_map(self, g: int) -> Sequence[int]:
        """Index map i -> index of i * g, read one point at a time: it walks
        g's geodesic for each point read, so no n-wide array is formed."""
        return _GeodesicMap([self._action_views[s] for s in self._geodesic(g)])

    def conjugation_action(self, g: int) -> np.ndarray:
        """int32 array mapping index x to the index of g^-1 * x * g."""
        right, inv = self.right_action(g), self._inverse
        return right[inv[right[inv]]]

    def conjugates(self, xs: Sequence[int]) -> np.ndarray:
        """int32 array C with C[i, g] = index of g^-1 * xs[i] * g, for every g.

        x^(p*s) = (x^p)^s, so walking down the BFS levels, each element's
        column is its BFS parent's column through the conjugation map of the
        step that reaches it.
        """
        if self._step_conj is None:
            inv = self._inverse
            self._step_conj = np.array([a[inv[a[inv]]] for a in self._actions], dtype=np.int32)
        maps = self._step_conj
        parent, step = np.asarray(self._parent), np.asarray(self._parent_step)
        out = np.empty((self.n, len(xs)), dtype=np.int32)
        out[0] = xs
        for level in self._levels[1:]:
            out[level] = maps[step[level][:, None], out[parent[level]]]
        return out.T

    # -- BFS and words ------------------------------------------------------

    def _geodesic(self, i: int) -> list[int]:
        """Step ordinals of the BFS geodesic from the identity to i."""
        parent, step = self._parent, self._parent_step
        path: list[int] = []
        while i != 0:
            path.append(step[i])
            i = parent[i]
        path.reverse()
        return path

    def word(self, i: int) -> list[int]:
        """Geodesic word for element i as signed generator references.

        +k means generator k-1, -k its inverse; the product read left to
        right equals the element.
        """
        return [self.step_refs[s] for s in self._geodesic(i)]

    def evaluate_word(self, word: Sequence[int]) -> int:
        x = 0
        for ref in word:
            g = self.generators[abs(ref) - 1]
            x = self.mul(x, g if ref > 0 else self.inv_idx[g])
        return x

    # -- growth -------------------------------------------------------------

    def growth_counts(self) -> list[int]:
        """Cumulative ball sizes gamma(0..diameter) from word lengths."""
        return np.bincount(np.asarray(self.word_length)).cumsum().tolist()

    def gamma(self, r: int) -> int:
        counts = self.growth_counts()
        if r >= len(counts):
            return counts[-1]
        return counts[r]

    def diameter(self) -> int:
        return max(self.word_length)

    def elements_by_length(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.diameter() + 1)]
        for i, d in enumerate(self.word_length):
            out[d].append(i)
        return out


def _cayley_bfs(actions: list[np.ndarray], n: int):
    """Word lengths, BFS parents, parent steps and levels over the step actions.

    Level by level from the identity; a new index takes the first
    (frontier position, step ordinal) that reaches it, as an element BFS
    expanding each level by the steps in order would. Until an index is
    found, its `parent` entry holds the least position reaching it so far
    (`np.minimum.at`); a position that is its target's least is that
    target's first product.
    """
    wl = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
    step = np.zeros(n, dtype=np.int32)
    wl[0] = parent[0] = 0
    frontier = np.zeros(1, dtype=np.int32)
    levels = [frontier]
    k = len(actions)
    depth = 0
    while k and frontier.size:
        reached = np.stack([a[frontier] for a in actions], axis=1).ravel()
        # int32 positions, as in `parent`, keep `minimum.at` on its fast path
        fresh = np.flatnonzero(wl[reached] < 0).astype(np.int32)
        target = reached[fresh]
        np.minimum.at(parent, target, fresh)
        fresh = fresh[parent[target] == fresh]
        found = reached[fresh]
        depth += 1
        wl[found] = depth
        parent[found] = frontier[fresh // k]
        step[found] = fresh % k
        frontier = found
        levels.append(found)
    if (wl < 0).any():
        raise InvariantViolated("generators do not generate the table")
    return wl, parent, step, levels


def _inverted(action: np.ndarray) -> np.ndarray:
    """The inverse permutation: the right action of the inverse step."""
    out = np.empty_like(action)
    out[action] = np.arange(len(action), dtype=action.dtype)
    return out


def _inverse_indices(
    actions: np.ndarray, refs: list[int], parent: np.ndarray, step: np.ndarray, levels: list
) -> np.ndarray:
    """Index of each element's inverse, from the step actions and BFS levels.

    Write x = t * rest(x), t the first step of x's BFS geodesic. A child
    x = p * s of p shares p's first step and rest(x) = rest(p) * s, one
    level up, so x^-1 = rest(x)^-1 * t^-1 is found from an earlier level:
    one pass down the levels, a few gathers per element. Where the steps
    hold each step's inverse (references k and -k), t^-1 acts by their
    actions, so no second (steps, n) array is built; otherwise every action
    is inverted.
    """
    back = np.array([refs.index(-r) if -r in refs else -1 for r in refs], np.int32)
    undo = actions
    if (back < 0).any():
        undo, back = np.array([_inverted(a) for a in actions]), np.arange(len(refs))
    inv, first, rest = (np.zeros(len(parent), np.int32) for _ in range(3))
    for depth, level in enumerate(levels[1:], 1):
        if depth == 1:  # x = t, rest(x) the identity
            first[level] = step[level]
        else:
            p = parent[level]
            first[level] = first[p]
            rest[level] = actions[step[level], rest[p]]
        inv[level] = undo[back[first[level]], inv[rest[level]]]
    return inv


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a member mask over its table, with a generating index list.

    `mask` holds one byte per element of the table, 1 for a member; `flags`
    is the same bytes as a read-only numpy bool array. Subgroups sort by
    the key (-order, mask) with reverse=True, which orders equal orders by
    ascending member tuples without building them: at the first index
    where two masks of equal count differ, the set holding that index has
    the larger mask and the smaller member tuple.
    """

    mask: bytes
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.mask.count(1)

    @property
    def flags(self) -> np.ndarray:
        return np.frombuffer(self.mask, dtype=bool)

    @property
    def members(self) -> tuple[int, ...]:
        """Member indices in ascending order."""
        return tuple(np.flatnonzero(self.flags).tolist())

    def __contains__(self, i: int) -> bool:
        return self.mask[i] == 1

    def contains_set(self, other: "Subgroup") -> bool:
        return not (other.flags > self.flags).any()

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order})"


def whole_group(T: FiniteGroupTable) -> Subgroup:
    return Subgroup(b"\x01" * T.n, tuple(T.generators))


def trivial_subgroup(T: FiniteGroupTable) -> Subgroup:
    return Subgroup(b"\x01" + bytes(T.n - 1), ())


def _orbit(maps: Sequence[Sequence[int]], seeds: Iterable[int], seen: bytearray) -> list[int]:
    """Points reached from the seeds under the index maps, in discovery order.

    Breadth-first, expanding each point by the maps in order. Every point
    reached is marked in `seen`, which the caller owns; points already
    marked are neither returned nor expanded, so successive calls on one
    `seen` split a set into orbits.
    """
    out = []
    for x in seeds:
        if not seen[x]:
            seen[x] = 1
            out.append(x)
    for x in out:  # out grows while it is walked: a FIFO queue
        for m in maps:
            y = m[x]
            if not seen[y]:
                seen[y] = 1
                out.append(y)
    return out


class _GeodesicMap:
    """i -> the index of i * g, walking g's geodesic (its steps' actions)."""

    __slots__ = ("steps",)

    def __init__(self, steps: list[memoryview]):
        self.steps = steps

    def __getitem__(self, i: int) -> int:
        for a in self.steps:
            i = a[i]
        return i


# Members from which `_Closure.add` walks cosets rather than points: below
# it, the numpy calls of a coset cost more than the `_orbit` loop over its
# points. Time in `add` over the verify-cases and finite-structure jobs is
# flat from 12 to 24 and rises by 5-10% at 8 and at 32.
COSET_WALK_MIN = 16


class _Closure:
    """A subgroup of T grown in place: its members, marked in `seen`, its
    order, and the generators that enlarged it (`gens`) with their point
    maps (`maps`, see `FiniteGroupTable.point_map`). It starts from the
    trivial subgroup. `seen` is the member mask itself, so the subgroup is
    read off it with no sort.

    Below COSET_WALK_MIN members, `members` is a list in discovery order
    and adjoining g walks points (`_orbit`). From there on it is an int32
    array, the identity first, and adjoining g to the closure K walks
    right cosets of K, one point-set product (`mul_points`) each: every
    coset K*r stored, r its first point (K itself, r = 1, included),
    yields K*(r*s) = (K*r)*s for each generator s with r*s unmarked,
    marked by one numpy store. The first is K*g. Right cosets of K are
    disjoint or equal, so the union of those taken is closed under right
    multiplication by every generator: it is <K, g>.
    """

    def __init__(self, T: FiniteGroupTable):
        self.T = T
        self.seen = bytearray(T.n)
        self.seen[0] = 1
        self.gens: list[int] = []
        self.maps: list[Sequence[int]] = []
        self.order = 1
        self.members: list[int] | np.ndarray = [0]

    def add(self, g: int) -> bool:
        """Adjoin g; False, changing nothing, if g is already a member.

        A word leaves the old closure first through g, so walking on from
        every old member times g (the coset K*g) reaches all of <old, g>."""
        if self.seen[g]:
            return False
        m = self.T.point_map(g)
        self.gens.append(g)
        self.maps.append(m)
        if isinstance(self.members, list):
            self.members += _orbit(self.maps, [m[x] for x in self.members], self.seen)
            self.order = len(self.members)
            if self.order >= COSET_WALK_MIN:
                self.members = np.array(self.members, np.int32)
            return True
        T, seen, flags = self.T, self.seen, np.frombuffer(self.seen, bool)
        cosets = [self.members]
        for c in cosets:  # cosets grows while it is walked
            r = int(c[0])
            for s, times_s in zip(self.gens, self.maps):
                if not seen[times_s[r]]:
                    c_s = T.mul_points(c, s)
                    flags[c_s] = True
                    cosets.append(c_s)
        self.members = np.concatenate(cosets)
        self.order = len(self.members)
        return True

    def subgroup(self, gens: Iterable[int]) -> Subgroup:
        return Subgroup(bytes(self.seen), tuple(gens))


def subgroup_generated(T: FiniteGroupTable, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed indices."""
    gens = list(dict.fromkeys(s for s in seeds if s != 0))
    C = _Closure(T)
    for g in gens:
        C.add(g)
    return C.subgroup(gens)


def _normal_closure_under(
    T: FiniteGroupTable, seeds: Iterable[int], conjugators: Sequence[int]
) -> Subgroup:
    """Smallest subgroup containing seeds, normalized by <conjugators>.

    One worklist: a seed or conjugate that enlarges the closure is kept and
    queues its conjugates, so the finite result maps into itself under
    each conjugator, hence onto.
    """
    C = _Closure(T)
    work = list(seeds)
    for x in work:  # work grows while it is walked
        if C.add(x):
            work.extend(T.conj(x, g) for g in conjugators)
    return C.subgroup(C.gens)


def normal_closure(T: FiniteGroupTable, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of T containing the seeds."""
    return _normal_closure_under(T, seeds, T.generators)


def reduce_generators(T: FiniteGroupTable, H: Subgroup) -> Subgroup:
    """Replace the generator list by a short one (greedy, by index order)."""
    C = _Closure(T)
    order = H.order
    for x in H.members:
        if C.order == order:
            break
        C.add(x)
    return Subgroup(H.mask, tuple(C.gens))


def commutator_subgroup(T: FiniteGroupTable, A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B]: normal closure in <A, B> of generator commutators."""
    joint = list(dict.fromkeys(g for g in A.generators + B.generators if g != 0))
    seeds = [T.comm(a, b) for a in A.generators for b in B.generators]
    H = _normal_closure_under(T, seeds, joint)
    return reduce_generators(T, H)


def derived_series(T: FiniteGroupTable, start: Subgroup | None = None) -> list[Subgroup]:
    """Descending derived series from the whole group (or from `start`).

    Stops at the first repetition; for a soluble group the last term is
    trivial.
    """
    H = start if start is not None else whole_group(T)
    series = [H]
    while True:
        nxt = commutator_subgroup(T, H, H)
        if nxt.order == H.order:
            break
        series.append(nxt)
        H = nxt
        if H.is_trivial():
            break
    return series


def derived_length(T: FiniteGroupTable, start: Subgroup | None = None) -> int | None:
    """Derived length, or None if the series does not reach the identity."""
    series = derived_series(T, start)
    if series[-1].is_trivial():
        return len(series) - 1
    return None


def is_soluble(T: FiniteGroupTable, start: Subgroup | None = None) -> bool:
    return derived_length(T, start) is not None


def lower_central_series(
    T: FiniteGroupTable, start: Subgroup | None = None
) -> list[Subgroup]:
    """gamma_1 >= gamma_2 >= ..., stopping at the first repetition."""
    G = start if start is not None else whole_group(T)
    series = [G]
    H = G
    while True:
        nxt = commutator_subgroup(T, H, G)
        if nxt.order == H.order:
            break
        series.append(nxt)
        H = nxt
        if H.is_trivial():
            break
    return series


def nilpotency_class(T: FiniteGroupTable) -> int | None:
    """Nilpotency class, or None if not nilpotent."""
    series = lower_central_series(T)
    if series[-1].is_trivial():
        return len(series) - 1
    return None


def conjugacy_classes(
    T: FiniteGroupTable, H: Subgroup | None = None
) -> list[tuple[int, ...]]:
    """Partition of H (default: the whole group) into H-conjugacy classes.

    Classes are sorted by their least member; each class is sorted. Each
    generator's conjugation map is walked on H's points alone, and read
    only there.
    """
    H = H if H is not None else whole_group(T)
    points, inv = np.flatnonzero(H.flags).astype(np.int32), T._inverse
    maps = []
    for g in H.generators:  # g^-1 * x * g = (x^-1 * g)^-1 * g
        conj = np.zeros(T.n, np.int32)
        conj[points] = T.mul_points(inv[T.mul_points(inv[points], g)], g)
        maps.append(memoryview(conj))
    seen = bytearray(T.n)
    return [tuple(sorted(c)) for x in H.members if (c := _orbit(maps, (x,), seen))]


def is_normal(T: FiniteGroupTable, H: Subgroup) -> bool:
    return all(T.conj(x, g) in H for x in H.generators for g in T.generators)


# -- enumeration ------------------------------------------------------------


def element_bfs(
    X: GenSet, cap: int, products: bool = True
) -> Iterator[tuple[Sequence, np.ndarray | None, np.ndarray]]:
    """Level-synchronous BFS over the elements of <X>, one level per yield.

    Elements are indexed in discovery order, expanding each level by the
    steps of `X.bfs_steps()` in order. Radius r yields (new, products,
    first): the elements first reached at r, in discovery order; the index
    of x * s for each element x of radius r-1 and each step s, x-major, as
    an int32 array (None when `products` is false); and for each new
    element the position of the first of those products to reach it.
    Radius 0 yields the identity alone; the level that finds nothing new
    is yielded too, so the products of the last level are complete.

    Variants with a row codec (perm, matfp) carry each level as one row
    array, `new` included, and are deduplicated on sorted row keys a block
    of frontier rows at a time (`_row_levels`). The others stream one
    element object at a time through an encoding -> index dict.

    Raises CapExceeded as soon as a new element would take the count past
    `cap`; its `last_completed` is the size of the last complete ball. The
    identity is never counted against the cap.
    """
    steps = [s for s, _ref in X.bfs_steps()]
    codec = X.row_codec()
    if codec is None:
        yield from _object_levels(X.identity(), steps, cap, products)
        return
    for new, found, first in _row_levels(codec, X.identity(), steps, cap):
        yield new, found if products else None, first


def _object_levels(
    e: GroupElement, steps: list[GroupElement], cap: int, products: bool
) -> Iterator[tuple[list[GroupElement], np.ndarray | None, np.ndarray]]:
    """`element_bfs` over element objects, deduplicated by encoding in a dict.

    Candidates stream, so a level never holds more than its new elements.
    """
    index = {e.encode(): 0}
    frontier = [e]
    yield frontier, np.zeros(0, np.int32), np.zeros(0, np.intp)
    while frontier:
        complete = len(index)
        new: list[GroupElement] = []
        first: list[int] = []
        found: list[int] = []
        for at, (x, s) in enumerate(product(frontier, steps)):
            y = x * s
            enc = y.encode()
            j = index.get(enc)
            if j is None:
                j = len(index)
                if j >= cap:
                    raise CapExceeded(f"group exceeds cap of {cap} elements", complete)
                index[enc] = j
                new.append(y)
                first.append(at)
            if products:
                found.append(j)
        frontier = new
        yield new, np.array(found, np.int32) if products else None, np.array(first, np.intp)


def enumerate_group(X: GenSet, cap: int = DEFAULT_CAP) -> FiniteGroupTable:
    """BFS-enumerate <X> with exact word lengths over X u X^-1.

    Deterministic: elements are indexed in discovery order, expanding each
    level by the generators in list order and then their inverses. Perm and
    matfp tables keep their elements as rows and build each element object
    on access. The table takes its word lengths, BFS parents and levels
    from this BFS rather than running its own.
    """
    if cap < 1:
        raise CapExceeded("cap must be >= 1", 0)
    refs = [ref for _s, ref in X.bfs_steps()]
    k = len(refs)
    levels, products, firsts = (list(column) for column in zip(*element_bfs(X, cap)))
    bounds = np.cumsum([0] + [len(level) for level in levels]).tolist()
    n = bounds[-1]
    # Level r's products are level r-1 times each step, x-major: their
    # columns fill level r-1's part of each step's right action. Each level
    # is dropped once copied, so no (n, k) array or row array is held twice.
    actions = np.empty((k, n), np.int32)
    parent, step = np.zeros(n, np.int32), np.zeros(n, np.int32)
    for r in range(1, len(levels)):
        lo, hi = bounds[r - 1], bounds[r]
        actions[:, lo:hi] = products[r].reshape(hi - lo, k).T
        parent[hi : bounds[r + 1]] = lo + firsts[r] // k
        step[hi : bounds[r + 1]] = firsts[r] % k
        products[r] = firsts[r] = None
    wl = np.repeat(np.arange(len(levels), dtype=np.int32), np.diff(bounds))
    codec = X.row_codec()
    if codec is None:
        elements: Sequence[GroupElement] = [g for level in levels for g in level]
    else:
        rows = np.empty((n, codec.width), codec.dtype)
        for r in range(len(levels)):
            rows[bounds[r] : bounds[r + 1]], levels[r] = levels[r], None
        elements = RowElements(codec, rows)
    # Generator k is the identity times step k, reached at radius 1.
    return FiniteGroupTable(
        actions[: len(X), 0].tolist(),
        refs,
        actions,
        elements=elements,
        gen_set=X,
        bfs=(wl, parent, step, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]),
    )


# -- derived tables ----------------------------------------------------------


class QuotientGroup:
    """Quotient G/N carried as a coset-representative table.

    `table` is a genuine FiniteGroupTable over the cosets (representative =
    least element index in each coset), so every table operation applies to
    quotients; `coset_of` maps parent indices to quotient indices.
    """

    def __init__(self, parent: FiniteGroupTable, N: Subgroup):
        if not is_normal(parent, N):
            raise NotNormal(f"subgroup of order {N.order} is not normal")
        # gN = Ng for normal N, so the coset of g = p * s (p its BFS parent,
        # s the step from p) is the coset of p times s: one gather of |N|
        # points per coset, walking the elements by word length so that p
        # is labelled first. Cosets are then numbered by least element.
        label = np.full(parent.n, -1, dtype=np.int32)
        found = memoryview(label)
        cosets = [np.flatnonzero(N.flags).astype(np.int32)]
        label[cosets[0]] = 0
        up, step, actions = parent._parent, parent._parent_step, parent._actions
        for g in np.argsort(np.asarray(parent.word_length)).tolist():
            if found[g] < 0:
                c = actions[step[g]][cosets[found[up[g]]]]
                label[c] = len(cosets)
                cosets.append(c)
        if len(cosets) * N.order != parent.n or (label < 0).any():
            raise InvariantViolated("cosets of the normal subgroup do not partition the group")
        least = np.array(cosets).min(axis=1)
        rank = np.empty(len(least), dtype=np.int32)
        rank[np.argsort(least)] = np.arange(len(least), dtype=np.int32)
        coset = rank[label]
        self.parent = parent
        self.normal = N
        self.coset_of = coset.tolist()
        self.reps = reps = np.sort(least).tolist()

        # Images of the parent generators and the parent's own steps, order
        # and multiplicity preserved, so that word references in the quotient
        # lift to the parent and quotient words are measured over the same
        # steps. Step s maps the coset of rep to the coset of rep * s.
        gens = [self.coset_of[g] for g in parent.generators]
        actions = coset[parent._actions[:, np.array(reps, dtype=np.int32)]]
        self.table = FiniteGroupTable(gens, parent.step_refs, actions)


def quotient(T: FiniteGroupTable, N: Subgroup) -> QuotientGroup:
    """Quotient of T by a normal subgroup N."""
    return QuotientGroup(T, N)
