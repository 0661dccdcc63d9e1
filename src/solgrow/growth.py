"""Cayley-ball growth tables gamma(0..R), counted sphere by sphere.

Works for finite and infinite groups alike. When the BFS steps are
inverse-closed, every neighbour of the sphere S_r lies in S_{r-1}, S_r or
S_{r+1}, so S_{r+1} is the set of distinct products of S_r minus the two
spheres before it. Generating sets with a ball codec (perm, matfp, matz,
lamplighter; `GenSet.ball_codec`) are counted that way on numpy rows. Each
sphere is held only as the sorted keys of its rows (`rowbfs._Keys`, which
the element BFS shares): a row's mixed-radix rank over per-column ranges,
in as many uint64 words as the ranges need; products outside the ranges,
or wider than them (lamplighter rows append words as lamps reach further
out), widen them; on the infinite catalog groups that happens once a level,
before its first key. A level's product keys go into one buffer, which is
sorted and compacted in place: its distinct keys that are in neither of the
previous two spheres (found with `searchsorted`) move to its front, and
that front is the new sphere. Nothing older than S_{r-1} is held. The
buffer is also compacted once its keys could pass the element cap, so the
cap stops a level early. Every other set (no
codec, steps not inverse-closed, integer matrices whose entries could pass
int64) is counted from the level sizes of `table.element_bfs`, the BFS that
enumerates finite groups (on the same exact row keys for perm and matfp, on
encodings for the rest); an integer-matrix run that could overflow starts
again from radius 0 on that path.

A level that would take the ball past the element cap is dropped whole, so
a capped run is a partial table, exact up to its last completed radius.
Partial tables are first-class results, flagged `truncated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .elements import GenSet, GroupElement, RowCodec, TreeAuto
from .errors import CapExceeded, DegenerateWindow
from .rowbfs import _BLOCK, _Keys, _inverse_closed
from .specio import spec_digest
from .table import (
    DEFAULT_CAP,
    commutator_subgroup,
    element_bfs,
    enumerate_group,
    reduce_generators,
    whole_group,
)


@dataclass
class GrowthTable:
    """Cumulative ball sizes gamma(0..R) with provenance metadata."""

    counts: list[int]
    digest: str
    generator_count: int
    requested_radius: int
    truncated: bool = False
    truncation_reason: str | None = None

    @property
    def radius(self) -> int:
        return len(self.counts) - 1

    def gamma(self, r: int) -> int:
        """Ball size at radius r.

        Beyond the last computed radius the value is known only when the BFS
        stopped early without a cap: the ball then is the whole finite group.
        """
        if r < 0:
            raise ValueError("radius must be >= 0")
        if r <= self.radius:
            return self.counts[r]
        if not self.truncated and self.radius < self.requested_radius:
            return self.counts[-1]
        raise ValueError(f"radius {r} beyond computed table (R = {self.radius})")

    def to_csv(self) -> str:
        lines = ["radius,gamma"]
        lines += [f"{r},{c}" for r, c in enumerate(self.counts)]
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "digest": self.digest,
            "generator_count": self.generator_count,
            "requested_radius": self.requested_radius,
            "radius": self.radius,
            "counts": list(self.counts),
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
        }


def growth_table(
    X: GenSet, R: int, max_elements: int = DEFAULT_CAP
) -> GrowthTable:
    """Exact gamma(0..R) for <X>, stopping early only at the element cap.

    A level that would cross the cap is discarded whole, so every reported
    count is the exact ball size at its radius.
    """
    if R < 0:
        raise ValueError("radius must be >= 0")
    steps = [s for s, _ref in X.bfs_steps()]
    codec = X.ball_codec()
    tally = None
    if codec is not None and _inverse_closed(steps):
        try:
            tally = _tally(_sphere_levels(codec, X.identity(), steps, max_elements), R)
        except OverflowError:
            pass  # integer matrix entries could pass int64: start again on encodings
    if tally is None:
        tally = _tally(_encoded_levels(X, max_elements), R)
    counts, reason = tally
    return GrowthTable(
        counts=counts,
        digest=spec_digest(X),
        generator_count=len(X),
        requested_radius=R,
        truncated=reason is not None,
        truncation_reason=reason,
    )


def _tally(levels: Iterator[int], R: int) -> tuple[list[int], str | None]:
    """Ball sizes up to radius R from the sizes of the spheres S_1, S_2, ...
    (whose iterator raises CapExceeded), and the truncation reason or None."""
    counts = [1]
    while len(counts) <= R:
        try:
            size = next(levels)
        except CapExceeded:
            return counts, "max_elements"
        if not size:
            break  # group exhausted; ball is the whole group from here on
        counts.append(counts[-1] + size)
    return counts, None


def _encoded_levels(X: GenSet, cap: int) -> Iterator[int]:
    """Sphere sizes from the element BFS of `solgrow.table`."""
    for new, *_ in islice(element_bfs(X, cap, products=False), 1, None):
        yield len(new)


def _sphere_levels(
    codec: RowCodec, e: GroupElement, steps: list[GroupElement], cap: int
) -> Iterator[int]:
    """Sphere sizes on rows: S_{r+1} = distinct products of S_r - S_{r-1} - S_r.

    Needs inverse-closed steps. Each sphere is held as the sorted keys of
    its rows. The key ranges cover the held spheres and every product
    keyed so far. S_r is expanded in blocks of about `_BLOCK` products. Its
    first and last blocks are formed first: their rows have the extreme
    leading entries, so their products widen the ranges, once, before the
    level's first key, and the held spheres are keyed again. A later block
    outside the ranges, or wider (as other generating sets may form),
    widens them again, and the held and written keys are keyed again one
    array at a time, in place while the key dtype stays.
    The level's product keys go into one buffer of |S_r| * len(steps)
    keys, which is compacted in place (`_compact`) at the end of the level,
    and before that whenever its unsorted keys could take the ball past
    `cap` and outnumber the keys a compaction reads again, so each
    compaction costs no more than the keys it takes in. CapExceeded is
    raised as soon as a compacted sphere would take the ball past `cap`.
    The new sphere is the front of its buffer.
    """
    step_rows, row = codec.rows(steps), codec.rows([e])[0].astype(np.int64)
    keys = _Keys(step_rows.dtype, row, row)
    held = [np.zeros(0, np.uint64), np.zeros(1, np.uint64)]  # S_{r-1}, S_r; S_0's row is lo, of key 0
    total, per = 1, max(1, _BLOCK // len(steps))
    while True:
        starts = range(0, len(held[1]), per)
        order = [*starts[:1], *starts[1:][-1:], *starts[1:-1]]  # the first and last blocks first
        formed = [codec.products(keys.rows(held[1][lo : lo + per]), step_rows) for lo in order[:2]]
        buf, fill, done = np.empty(len(held[1]) * len(steps), keys.kind), 0, 0
        for i, lo in enumerate(order):
            products = formed.pop(0) if formed else codec.products(keys.rows(held[1][lo : lo + per]), step_rows)
            wider = keys.widened(products, *formed)
            if wider is not None:
                for h in range(len(held)):  # each old array is dropped before the next is made
                    held[h] = _rekeyed(held[h], len(held[h]), wider, keys)
                buf, keys = _rekeyed(buf, fill, wider, keys), wider
            buf[fill : fill + len(products)] = keys.of(products)
            fill += len(products)
            if i == len(order) - 1 or fill - done > max(cap - total - done, done + len(held[0]) + len(held[1])):
                fill = done = _compact(buf[:fill], held)
                if total + done > cap:
                    raise CapExceeded(f"ball exceeds cap of {cap} elements", total)
        total += done
        held = [held[1], buf[:done]]
        yield done


def _rekeyed(keys: np.ndarray, fill: int, wider: _Keys, old: _Keys) -> np.ndarray:
    """`keys`, whose first `fill` were made under `old`, with those made again
    under `wider`: in place while the key dtype stays, else in a new array of
    the same length."""
    out = keys if keys.dtype == wider.kind else np.empty(len(keys), wider.kind)
    wider.rekey(keys[:fill], old, out=out[:fill])
    return out


def _compact(keys: np.ndarray, held: list[np.ndarray]) -> int:
    """Sort `keys` in place and move to its front, in order, each distinct key
    that is in none of the sorted arrays `held`; return their number.

    Compacts `_BLOCK` keys at a time. A kept key moves only forward, onto a
    key already read, so the key before each block is still the one sorted
    there.
    """
    # Not np.unique: it hashes integer keys, many times slower than a sort.
    keys.sort()
    kept = 0
    for lo in range(0, len(keys), _BLOCK):
        part = keys[lo : lo + _BLOCK]
        keep = np.empty(len(part), bool)
        keep[:1] = lo == 0 or keys[lo - 1 : lo] != part[:1]
        keep[1:] = part[1:] != part[:-1]  # no `out=`: numpy has no such loop for void keys
        for sphere in held:
            a, b = sphere.searchsorted(part[:1])[0], sphere.searchsorted(part[-1:], "right")[0]
            found = sphere[a:b]  # the held keys within the part's range
            at = part.searchsorted(found)
            keep[at[part[at] == found]] = False
        n = int(np.count_nonzero(keep))
        keys[kept : kept + n] = part[keep]
        kept += n
    return kept


@dataclass
class GrowthFit:
    """Fitted growth model on a radius window."""

    kind: str  # "polynomial" | "stretched_exponential"
    parameter: float  # degree d or exponent beta
    intercept: float
    residual: float
    window: tuple[int, int]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "intercept": self.intercept,
            "residual": self.residual,
            "window": list(self.window),
        }


def growth_exponent_fit(
    tbl: GrowthTable, window: tuple[int, int] | None = None
) -> GrowthFit:
    """Least-squares fit of the tail: polynomial vs stretched exponential.

    Polynomial: log gamma ~ d log n; stretched: log log gamma ~ beta log n.
    Both models are scored by their mean squared error predicting
    log gamma (a common scale, so the comparison is fair); the better one
    is returned. Default window: the top half of the computed radii.
    """
    if window is None:
        window = (max(1, tbl.radius // 2), tbl.radius)
    lo, hi = window
    if lo < 1 or hi > tbl.radius or hi < lo:
        raise DegenerateWindow(f"window {window} outside table radii 1..{tbl.radius}")
    ns = list(range(lo, hi + 1))
    log_n = np.array([math.log(n) for n in ns])
    log_g = np.array([math.log(tbl.counts[n]) for n in ns])
    fits = []
    if len(set(ns)) >= 2:
        d, c = np.polyfit(log_n, log_g, 1)
        res = float(np.mean((log_g - (d * log_n + c)) ** 2))
        fits.append(("polynomial", float(d), float(c), res))
    if all(tbl.counts[n] > 1 for n in ns) and len(set(ns)) >= 2:
        loglog_g = np.log(log_g)
        beta, c2 = np.polyfit(log_n, loglog_g, 1)
        pred = np.exp(beta * log_n + c2)
        res = float(np.mean((log_g - pred) ** 2))
        fits.append(("stretched_exponential", float(beta), float(c2), res))
    if not fits:
        raise DegenerateWindow("too few usable points in fit window")
    kind, slope, intercept, residual = min(fits, key=lambda f: f[3])
    return GrowthFit(kind, slope, intercept, residual, (lo, hi))


# -- iterated wreath towers of Sym(4) ----------------------------------------

_S4_GEN_LABELS = [(1, 0, 2, 3), (1, 2, 3, 0)]
_A4_GEN_LABELS = [(1, 2, 0, 3), (1, 0, 3, 2)]  # (0 1 2), (0 1)(2 3)


def _leveled_gen(depth: int, level: int, label: tuple[int, ...]) -> TreeAuto:
    return TreeAuto(depth, 4, {(0,) * level: label})


def _embed(auto: TreeAuto, depth: int, subtree: int) -> TreeAuto:
    """Place a depth-(d-1) automorphism inside one subtree of a depth-d tree."""
    return TreeAuto(
        depth, 4, {(subtree,) + path: lab for path, lab in auto.portrait.items()}
    )


def s4_tower(depth: int) -> GenSet:
    """Generators of the full depth-d truncation of the Sym(4) tree tower.

    Two Sym(4) generators per level, placed along the leftmost path; the
    level-0 copy permutes subtrees transitively, so conjugation reaches
    every node and the full iterated wreath product is generated.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gens = []
    for level in range(depth):
        for label in _S4_GEN_LABELS:
            gens.append(_leveled_gen(depth, level, label))
    return GenSet(gens)


def s4_tower_derived(depth: int) -> GenSet:
    """Generators of the derived subgroup of the depth-d tower truncation.

    depth 1: computed from the enumerated 24-element table by
    commutator_subgroup. depth >= 2 uses the lift rule for W = A wr Sym(4):
    the derived subgroup is generated by Alt(4) at the root, the pairs
    (x in subtree 0, x^-1 in subtree 1) over the generators x of A, and
    the derived generators of A in subtree 0 (recursively). These
    generate {f in A^4 : product of f mod A' trivial} x| Alt(4) = W'.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth == 1:
        T = enumerate_group(s4_tower(1))
        D = reduce_generators(T, commutator_subgroup(T, whole_group(T), whole_group(T)))
        return GenSet([T.elements[g] for g in D.generators])
    gens: list[TreeAuto] = []
    for label in _A4_GEN_LABELS:
        gens.append(_leveled_gen(depth, 0, label))
    inner = s4_tower(depth - 1)
    for x in inner.elements:
        assert isinstance(x, TreeAuto)  # type narrowing: s4_tower builds TreeAuto
        pos = _embed(x, depth, 0)
        neg = _embed(x.inverse(), depth, 1)
        gens.append(pos * neg)
    for x in s4_tower_derived(depth - 1).elements:
        assert isinstance(x, TreeAuto)  # type narrowing, as above
        gens.append(_embed(x, depth, 0))
    return GenSet(gens)
