"""Exact row keys, and the element BFS of `solgrow.table` on codec rows (perm, matfp).

A row's key (`_Keys`) is its mixed-radix rank over per-column ranges, in
as many uint64 words as the ranges need, so equal keys are equal rows. The
growth BFS of `solgrow.growth` widens its ranges as products leave them.
Perm and matfp rows hold entries 0..`codec.top`, so the element BFS keys
every row over those fixed ranges and never widens them: one uint64 key up
to perm degree 16 or p^(n^2) <= 2^64, big-endian words as one void scalar
above that.

Each level is one numpy row array, expanded through the variant's row
codec (`solgrow.elements`) a block of frontier rows at a time and
deduplicated on the sorted keys of its products.

With inverse-closed steps, a product x * s that lands one level down is a
back edge: its index y is known from the level before, whose product
y * s^-1 reached x. Those entries are filled in, never keyed or looked
up; the other products can land only in the frontier or the new level,
so the level before needs no keys. What is held for lookups is (sorted
keys, indices), no rows: the rows are the level arrays the BFS yields.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .elements import GroupElement, RowCodec
from .errors import CapExceeded

_ROW_BLOCK = 1024  # frontier rows expanded at once
_BLOCK = 1 << 16  # growth products formed, keys made again (`_Keys.rekey`) and keys compacted, at once


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
        self.kind = np.dtype(np.uint64 if len(self.words) == 1 else f"V{8 * len(self.words)}")  # of a key
        # Each word as a dot product: the columns from its first to the next
        # word's first, their place values (0 for a column of one value) and
        # the rank of lo, all mod 2**64, where the rank itself is exact.
        self._dots = []
        starts = [0] + [radix[0][0] for radix in self.words[1:]] + [len(lo)]
        for radix, a, b in zip(self.words, starts, starts[1:]):
            places, place = [0] * (b - a), 1
            for c, span in reversed(radix):
                places[c - a], place = place, place * span
            offset = sum(p * l for p, l in zip(places, lo[a:b].tolist())) % (1 << 64)
            self._dots.append((a, np.array(places, np.uint64), np.uint64(offset)))

    def widened(self, *blocks: np.ndarray) -> _Keys | None:
        """Keys whose ranges also cover the rows of every block, or None if
        these do. A column that a block or the ranges lack is zero."""
        width = max([len(self.lo)] + [rows.shape[1] for rows in blocks])
        old_lo, old_hi = np.zeros((2, width), np.int64)
        old_lo[: len(self.lo)], old_hi[: len(self.hi)] = self.lo, self.hi
        lo, hi = old_lo, old_hi
        for rows in blocks:
            least, most = np.zeros((2, width), np.int64)
            least[: rows.shape[1]], most[: rows.shape[1]] = _column_bounds(rows)
            lo, hi = np.minimum(lo, least), np.maximum(hi, most)
        if (lo == old_lo).all() and (hi == old_hi).all():
            return None
        # Widen as far again, so that a level widens a few times rather than
        # once a block, unless that takes more words than the exact ranges.
        # (Where 2 * lo - old_lo wraps round int64, the exact bound stays.)
        exact = _Keys(self.dtype, lo, hi)
        loose = _Keys(self.dtype, np.minimum(lo, 2 * lo - old_lo), np.maximum(hi, 2 * hi - old_hi))
        return loose if len(loose.words) <= len(exact.words) else exact

    def of(self, rows: np.ndarray) -> np.ndarray:
        """The key of each row, which must lie in the ranges: each word one
        integer product of the row's columns and their place values."""
        if rows.dtype.kind == "i":  # signed entries rank mod 2**64, as uint64
            rows = rows.astype(np.int64, copy=False).view(np.uint64)
        words = []
        for a, places, offset in self._dots:
            b = min(a + len(places), rows.shape[1])  # columns a row lacks add 0
            key = rows[:, a:b] @ places[: max(0, b - a)]
            key -= offset
            words.append(key)
        if len(words) == 1:
            return words[0]
        return np.stack(words, axis=1, dtype=">u8").view(f"V{8 * len(words)}").ravel()

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

    def rekey(self, keys: np.ndarray, old: _Keys, out: np.ndarray | None = None) -> np.ndarray:
        """`keys` made under `old`, made again under these wider ranges,
        `_BLOCK` keys at a time, so that no more rows are decoded at once.
        They are written to `out`, a new array by default; `out` may be
        `keys` itself when the key dtype stays, since each block is decoded
        before it is written."""
        if out is None:
            out = np.empty(len(keys), self.kind)
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


def _row_levels(
    codec: RowCodec, e: GroupElement, steps: list[GroupElement], cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`table.element_bfs` on codec rows, deduplicated by exact row keys.

    Back edges are filled in from the level before (see above). A block of
    `_ROW_BLOCK` frontier rows is expanded at once: the codec forms all its
    products in one call, cheaper than picking the pairs out first, and
    those not filled in are kept. They are sorted by key, and the first
    product of each distinct key stands for the others. The distinct keys
    are looked up with `searchsorted` in the held levels (the frontier
    with inverse-closed steps, else every level so far) and in the level
    being built, held in parts of halving size; those found nowhere are
    new rows, which take the next indices in product order. A level's rows
    are its blocks' new rows, joined once.
    """
    step_rows = codec.rows(steps)
    frontier = codec.rows([e])
    width = frontier.shape[1]
    keys = _Keys(frontier.dtype, np.zeros(width, np.int64), np.full(width, codec.top, np.int64))
    back = _step_inverses(codec, step_rows, frontier[0])
    k = len(steps)
    held = [(keys.of(frontier), np.zeros(1, np.int32))]
    count = 1  # elements found
    start = before = 0  # first index of the frontier and of the level before it
    found = np.zeros(0, np.int32)
    yield frontier, found, np.zeros(0, np.intp)
    while len(frontier):
        complete = count
        products = np.full((len(frontier), k), -1, np.int32)
        if back is not None:  # x * s = y one level down where y * s^-1 = x
            up = found.reshape(-1, k)
            for s, t in enumerate(back):
                column = up[:, t]
                y = (column >= start).nonzero()[0]
                products[:, s][column[y] - start] = before + y
        level: list[np.ndarray] = []  # the new rows of each block
        reached: list[np.ndarray] = []  # each new row's first product
        parts: list[tuple] = []  # the level being built
        for lo in range(0, len(frontier), _ROW_BLOCK):
            block = products[lo : lo + _ROW_BLOCK].reshape(-1)
            todo = (block < 0).nonzero()[0]
            if not len(todo):
                continue
            rows = codec.products(frontier[lo : lo + _ROW_BLOCK], step_rows)
            if len(todo) < len(rows):
                rows = rows.take(todo, axis=0)
            formed = keys.of(rows)
            order = formed.argsort()
            ordered = formed[order]
            first = np.empty(len(formed), bool)
            first[0] = True
            first[1:] = ordered[1:] != ordered[:-1]
            starts = first.nonzero()[0]
            reps = np.minimum.reduceat(order, starts)  # first product of each key
            slot = np.empty_like(order)  # each product's distinct key
            slot[order] = first.cumsum() - 1
            distinct = ordered[starts]
            index = np.full(len(distinct), -1, np.int32)
            miss = np.arange(len(distinct))
            for h_keys, h_index in (*held, *parts):
                at = h_keys.searchsorted(distinct[miss])
                np.minimum(at, len(h_keys) - 1, out=at)
                hit = h_keys[at] == distinct[miss]
                index[miss[hit]] = h_index[at[hit]]
                miss = miss[~hit]
            if len(miss):
                if count + len(miss) > cap:
                    raise CapExceeded(f"group exceeds cap of {cap} elements", complete)
                by_product = miss[reps[miss].argsort()]
                index[by_product] = np.arange(count, count + len(miss), dtype=np.int32)
                level.append(rows.take(reps[by_product], axis=0))
                reached.append(lo * k + todo[reps[by_product]])
                count += len(miss)
                _push(parts, (distinct[miss], index[miss]))
            block[todo] = index[slot]
        if back is None:  # every level stays held
            for part in parts:
                _push(held, part)
        else:  # only the new level, in one part
            held = [_merged(*parts)] if parts else []
        before, start, found = start, complete, products.reshape(-1)
        frontier = np.concatenate(level) if level else frontier[:0]
        yield frontier, found, np.concatenate(reached or [np.zeros(0, np.intp)])


def _merged(*held: tuple) -> tuple:
    """Held sets of (sorted keys, indices) as one."""
    if len(held) == 1:
        return held[0]
    keys, index = (np.concatenate(column) for column in zip(*held))
    order = keys.argsort(kind="stable")  # merges the sorted runs
    return keys[order], index[order]


def _push(parts: list[tuple], part: tuple) -> None:
    """Append a held set to `parts`, each part merged with those after it
    until it is twice their size, so that n rows are held in O(log n) parts."""
    parts.append(part)
    while len(parts) > 1 and len(parts[-2][0]) < 2 * len(parts[-1][0]):
        parts[-2:] = [_merged(*parts[-2:])]


def _step_inverses(codec: RowCodec, step_rows: np.ndarray, e: np.ndarray) -> list[int] | None:
    """For each step s, the first step t with s * t = e (equal steps have
    equal rows); None if some step's inverse is not among the steps."""
    k = len(step_rows)
    unit = (codec.products(step_rows, step_rows) == e).all(axis=1).reshape(k, k)
    return unit.argmax(axis=1).tolist() if unit.any(axis=1).all() else None


def _inverse_closed(steps: list[GroupElement]) -> bool:
    encodings = {s.encode() for s in steps}
    return all(s.inverse().encode() in encodings for s in steps)
