"""The element BFS of `solgrow.table` on codec rows (perm, matfp).

Each level is one numpy row array, expanded through the variant's row
codec (`solgrow.elements`) a block of frontier rows at a time and
deduplicated on one uint64 key per row, sorted: a hash of the row's bytes,
with the row's bytes as the key should two rows ever share a hash
(`table.element_bfs` then runs again on those).

With inverse-closed steps, a product x * s that lands one level down is a
back edge: its index y is known from the level before, whose product
y * s^-1 reached x. Those entries are filled in, never keyed or looked
up; the other products can land only in the frontier or the new level,
so the level before needs no keys. What is held for lookups is (sorted
keys, indices), no row bytes: the rows are the level arrays the BFS
yields anyway. Each formed product is compared once with the row of the
index it is given, which catches a shared hash whether the key met a
held row or another product of its block. An inferred entry needs no
comparison: it is a product of two rows already checked, read off the
group law.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .elements import GroupElement, RowCodec
from .errors import CapExceeded

_ROW_BLOCK = 1024  # frontier rows expanded at once


class _HashCollision(Exception):
    """Two distinct rows met under one hashed key in `_row_levels`."""


def _row_words(rows: np.ndarray) -> np.ndarray:
    """Each row's bytes as uint64 words, the last one padded with zeros."""
    size = rows.shape[1] * rows.itemsize
    words = np.zeros((len(rows), -(-size // 8)), np.uint64)
    words.view(np.uint8)[:, :size] = np.ascontiguousarray(rows).view(np.uint8)
    return words


@lru_cache(maxsize=None)
def _multipliers(count: int) -> np.ndarray:
    """`count` fixed odd uint64 constants (the splitmix64 sequence, made odd)."""
    out, x, mask = [], 0, (1 << 64) - 1
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31) | 1)
    constants = np.array(out, np.uint64)
    constants.flags.writeable = False  # shared by every caller through the cache
    return constants


def _row_hash(words: np.ndarray) -> np.ndarray:
    """One uint64 key per row: its words times fixed odd constants, summed mod 2**64."""
    return words @ _multipliers(words.shape[1])


def _row_bytes(words: np.ndarray) -> np.ndarray:
    """The exact key of each row: its words as one void scalar."""
    return words.view(f"V{words.itemsize * words.shape[1]}")[:, 0]


def _row_levels(
    codec: RowCodec,
    e: GroupElement,
    steps: list[GroupElement],
    cap: int,
    key: Callable[[np.ndarray], np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`table.element_bfs` on codec rows, deduplicated by `key` of each row's words.

    Back edges are filled in from the level before (see above). A block of
    `_ROW_BLOCK` frontier rows is expanded at once: the codec forms all its
    products in one call, cheaper than picking the pairs out first, and
    those not filled in are kept. They are sorted by key, and the first
    product of each distinct key stands for the others. The distinct keys
    are looked up with `searchsorted` in the held levels (the frontier
    with inverse-closed steps, else every level so far) and in the level
    being built, held in parts of halving size; those found nowhere are
    new rows, which take the next indices in product order, into one
    growing array. Every kept product is then compared with the row of the
    index it is given, so a hashed key that meets two distinct rows raises
    _HashCollision.
    """
    step_rows = codec.rows(steps)
    frontier = codec.rows([e])
    back = _step_inverses(codec, step_rows, frontier[0])
    k = len(steps)
    held = [(key(_row_words(frontier)), np.zeros(1, np.int32))]
    # The rows of the held levels from index `first_held` on, then those of
    # the level being built: `size` rows of one growing array.
    span, first_held, size = frontier.copy(), 0, 1
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
        span.resize((size + len(frontier), span.shape[1]), refcheck=False)
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
            keys = key(_row_words(rows))
            order = keys.argsort()
            ordered = keys[order]
            first = np.empty(len(keys), bool)
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
                if size + len(miss) > len(span):
                    span.resize((max(2 * len(span), size + len(miss)), span.shape[1]), refcheck=False)
                span[size : size + len(miss)] = rows.take(reps[by_product], axis=0)
                reached.append(lo * k + todo[reps[by_product]])
                count += len(miss)
                size += len(miss)
                _push(parts, (distinct[miss], index[miss]))
            block[todo] = got = index[slot]
            if not (rows == span.take(got - first_held, axis=0)).all():
                raise _HashCollision
        if back is None:  # every level stays held
            for part in parts:
                _push(held, part)
        else:  # only the new level: its keys, in one part, and its rows
            held = [_merged(*parts)] if parts else []
            span, first_held = span[complete - first_held : size].copy(), complete
            size = len(span)
        before, start, found = start, complete, products.reshape(-1)
        frontier = span[complete - first_held : size].copy()
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
