"""Cayley-ball growth tables gamma(0..R), counted sphere by sphere.

Works for finite and infinite groups alike. When the BFS steps are
inverse-closed, every neighbour of the sphere S_r lies in S_{r-1}, S_r or
S_{r+1}, so S_{r+1} is the set of distinct products of S_r minus the two
spheres before it. Generating sets with a ball codec (perm, matfp, matz,
lamplighter; `GenSet.ball_codec`) are counted that way on numpy rows. Each
sphere is held only as the sorted keys of its rows (`_Keys`): a row's
mixed-radix rank over per-column ranges, in as many uint64 words as the
ranges need; products outside the ranges, or wider than them (lamplighter
rows append words as lamps reach further out), widen them. Products are
deduplicated by sorting a block at a time, merged, and tested against the
previous two spheres with `searchsorted`; nothing older than S_{r-1} is
held. Blocks are merged once they could pass the element cap, so the cap
also bounds the keys held and stops a level early. Every other set (no
codec, steps not inverse-closed, integer matrices whose entries could pass
int64) is counted from the level sizes of `table.element_bfs`, the BFS that
enumerates finite groups (on hashed row keys for perm and matfp, on
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
from .rowbfs import _inverse_closed
from .specio import spec_digest
from .table import (
    DEFAULT_CAP,
    commutator_subgroup,
    element_bfs,
    enumerate_group,
    reduce_generators,
    whole_group,
)

_BLOCK = 1 << 16  # products formed and deduplicated at once on the sphere path


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
    formed so far: a block of products outside them, or wider, widens them,
    and the held, merged and waiting keys are keyed again, in as many words
    as the wider ranges need, which keeps them sorted. A level is expanded
    in blocks of about `_BLOCK` products, each deduplicated on its own. The
    blocks wait to be merged into the new sphere until their keys could
    take the ball past `cap` and outnumber the keys a merge reads again
    (the new and held spheres), so no more keys wait than the cap and one
    block, and each merge costs no more than the blocks it takes in.
    CapExceeded is raised as soon as a merged sphere would take the ball
    past `cap`.
    """
    step_rows, rows = codec.rows(steps), codec.rows([e])
    keys = _Keys(rows.dtype, rows[0].astype(np.int64), rows[0].astype(np.int64))
    before, sphere = keys.of(rows[:0]), keys.of(rows)
    total = 1
    while True:
        new, parts, unmerged = sphere[:0], [], 0
        reread = len(before) + len(sphere)  # keys a merge reads besides the new sphere
        per = max(1, _BLOCK // len(step_rows))
        for lo in range(0, len(sphere), per):
            products = codec.products(keys.rows(sphere[lo : lo + per]), step_rows)
            wider = keys.widened(products)
            if wider is not None:
                before, sphere, new, *parts = (wider.rekey(k, keys) for k in (before, sphere, new, *parts))
                keys = wider
            parts.append(_distinct(keys.of(products)))
            unmerged += len(parts[-1])
            last = lo + per >= len(sphere)
            if last or unmerged > max(cap - total - len(new), len(new) + reread):
                found, new, parts, unmerged = [new, *parts], None, [], 0
                new = _merge(found, [before, sphere])
                if total + len(new) > cap:
                    raise CapExceeded(f"ball exceeds cap of {cap} elements", total)
        total += len(new)
        before, sphere = sphere, new
        yield len(new)


class _Keys:
    """Sort keys of rows whose columns lie in the ranges [lo, hi].

    A column that a row or the ranges lack is zero. A row's key is its
    mixed-radix rank over the ranges in uint64 words: a word takes the next
    column while the spans multiply to at most 2**64.
    One word is a uint64 key; more are one void scalar of big-endian words.
    Either way keys order rows lexicographically by their entries, so keys
    made again under wider ranges (`rekey`) keep a sorted array sorted.
    """

    def __init__(self, dtype: np.dtype, lo: np.ndarray, hi: np.ndarray):
        self.dtype, self.lo, self.hi = np.dtype(dtype), lo, hi
        self.words = [[]]  # each word's (column, span), most significant first
        for c, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):
            if h > l:
                if math.prod(s for _c, s in self.words[-1]) * (h - l + 1) > 1 << 64:
                    self.words.append([])
                self.words[-1].append((c, h - l + 1))

    def widened(self, rows: np.ndarray) -> _Keys | None:
        """Keys whose ranges also cover `rows`, or None if these do."""
        lo, hi = _column_bounds(rows)  # `rows` are at least as wide as the ranges
        old_lo, old_hi = np.zeros((2, len(lo)), np.int64)
        old_lo[: len(self.lo)], old_hi[: len(self.hi)] = self.lo, self.hi
        lo, hi = np.minimum(old_lo, lo), np.maximum(old_hi, hi)
        if (lo == old_lo).all() and (hi == old_hi).all():
            return None
        # Widen as far again, so that a level widens a few times rather than
        # once a block, unless that takes more words than the exact ranges.
        # (Where 2 * lo - old_lo wraps round int64, the exact bound stays.)
        exact = _Keys(self.dtype, lo, hi)
        loose = _Keys(self.dtype, np.minimum(lo, 2 * lo - old_lo), np.maximum(hi, 2 * hi - old_hi))
        return loose if len(loose.words) <= len(exact.words) else exact

    def of(self, rows: np.ndarray) -> np.ndarray:
        """The key of each row, which must lie in the ranges."""
        if rows.shape[1] < len(self.lo):
            rows = np.pad(rows, ((0, 0), (0, len(self.lo) - rows.shape[1])))
        words = np.zeros((len(self.words), len(rows)), np.uint64)
        for key, radix in zip(words, self.words):
            for c, span in radix:  # key is 0 at the first, whose span may be 2**64
                key *= np.uint64(span % (1 << 64))
                key += rows[:, c].astype(np.int64).view(np.uint64) - np.uint64(int(self.lo[c]) % (1 << 64))
        if len(words) == 1:
            return words[0]
        return np.ascontiguousarray(words.T, ">u8").view(f"V{8 * len(words)}").ravel()

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The rows of the given keys."""
        words = [keys] if len(self.words) == 1 else keys.view(">u8").reshape(-1, len(self.words)).T.astype(np.uint64)
        rows = np.repeat(self.lo[None, :], len(keys), axis=0)
        for key, radix in zip(words, self.words):
            for c, span in radix[:0:-1]:
                key, digit = np.divmod(key, np.uint64(span))
                rows[:, c] += digit.view(np.int64)
            for c, _span in radix[:1]:  # the most significant digit is what is left
                rows[:, c] += key.view(np.int64)
        return rows.astype(self.dtype, copy=False)

    def rekey(self, keys: np.ndarray, old: _Keys) -> np.ndarray:
        """`keys` made under `old`, made again under these wider ranges,
        `_BLOCK` keys at a time, so that no more rows are decoded at once."""
        out = np.empty(len(keys), np.uint64 if len(self.words) == 1 else f"V{8 * len(self.words)}")
        for lo in range(0, len(keys), _BLOCK):
            out[lo : lo + _BLOCK] = self.of(old.rows(keys[lo : lo + _BLOCK]))
        return out


def _column_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's least and greatest entry over the rows.

    numpy reduces a tall, narrow array along its rows many times slower than
    a wide one, so whole groups of 256 rows are first read as one wide row
    and reduced to 256 rows, and those are then reduced with the rest.
    """
    width = rows.shape[1]
    cut = len(rows) - len(rows) % 256
    lo, hi = [rows[cut:]], [rows[cut:]]
    if cut:
        wide = rows[:cut].reshape(-1, 256 * width)
        lo.append(wide.min(axis=0).reshape(256, width))
        hi.append(wide.max(axis=0).reshape(256, width))
    return np.concatenate(lo).min(axis=0), np.concatenate(hi).max(axis=0)


def _distinct(keys: np.ndarray, kind: str | None = None) -> np.ndarray:
    """The distinct keys, sorted; sorts `keys` in place."""
    # Not np.unique: it hashes integer keys, many times slower than a sort.
    keys.sort(kind=kind)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _merge(found: list[np.ndarray], held: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct keys of `found` that are in none of `held`.

    Every array is sorted and distinct, so a stable sort of `found` merges
    its runs; each (smaller) held sphere is then searched in the result.
    `found` is emptied once joined, so that its arrays are freed before the
    sort (the caller holds no other reference to them).
    """
    keys = np.concatenate(found)
    found.clear()
    keys = _distinct(keys, kind="stable")
    keep = np.ones(len(keys), dtype=bool)
    for sphere in held:
        at = np.minimum(np.searchsorted(keys, sphere), len(keys) - 1)
        keep[at[keys[at] == sphere]] = False
    return keys[keep]


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
