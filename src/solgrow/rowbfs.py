"""The element BFS of `solgrow.table` on codec rows (perm, matfp).

Each level is one numpy row array, expanded through the variant's row
codec (`solgrow.elements`) a block of frontier rows at a time and
deduplicated on one uint64 key per row, sorted: a hash of the row's bytes,
checked against the row itself, with the row's bytes as the key should two
rows ever share a hash (`table.element_bfs` then runs again on those).
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

    The levels a product can land in are held by key: sorted keys, with the
    index and words of each row. With inverse-closed steps that is the
    frontier and the level before it, otherwise every level so far; the
    level being built is held the same way, in parts of halving size. A
    block of `_ROW_BLOCK` frontier rows is expanded at once. Its products
    are sorted by key, and the first product of each distinct key stands
    for the others, which must have its row; the distinct keys are looked
    up with `searchsorted`, and those found nowhere are new rows, which
    take the next indices in product order. Every product is compared with
    the row of the index it is given, so a hashed key that meets two
    distinct rows raises _HashCollision.
    """
    step_rows = codec.rows(steps)
    frontier = codec.rows([e])
    words = _row_words(frontier)
    held = [(key(words), np.zeros(1, np.int32), words)]
    inverse_closed = _inverse_closed(steps)
    count, start = 1, 0  # elements found; index of the frontier's first row
    yield frontier, np.zeros(0, np.int32), np.zeros(0, np.intp)
    while len(frontier):
        complete = count
        new: list[np.ndarray] = []
        reached: list[np.ndarray] = []  # each new row's first product
        found: list[np.ndarray] = []
        parts: list[tuple] = []  # the level being built
        for lo in range(0, len(frontier), _ROW_BLOCK):
            rows = codec.products(frontier[lo : lo + _ROW_BLOCK], step_rows)
            words = _row_words(rows)
            keys = key(words)
            order = keys.argsort()
            ordered = keys[order]
            first = np.empty(len(keys), bool)
            first[0] = True
            first[1:] = ordered[1:] != ordered[:-1]
            starts = first.nonzero()[0]
            reps = np.minimum.reduceat(order, starts)  # first product of each key
            slot = np.empty_like(order)  # each product's distinct key
            slot[order] = first.cumsum() - 1
            if not (words == words[reps[slot]]).all():
                raise _HashCollision
            distinct, rep_words = ordered[starts], words[reps]
            index = np.full(len(distinct), -1, np.int32)
            miss = np.arange(len(distinct))
            for part in (*held, *parts):
                index[miss] = _find(part, distinct[miss], rep_words[miss])
                miss = miss[index[miss] < 0]
            if len(miss):
                if count + len(miss) > cap:
                    raise CapExceeded(f"group exceeds cap of {cap} elements", complete)
                by_product = miss[reps[miss].argsort()]
                index[by_product] = np.arange(count, count + len(miss), dtype=np.int32)
                new.append(rows[reps[by_product]])
                reached.append(lo * len(step_rows) + reps[by_product])
                count += len(miss)
                _push(parts, (distinct[miss], index[miss], rep_words[miss]))
            found.append(index[slot])
        if inverse_closed:  # hold the frontier and the new level, in one part
            keep = (held[0][1] >= start).nonzero()[0]
            held = [_merged(tuple(a[keep] for a in held[0]), *parts)]
        else:
            for part in parts:
                _push(held, part)
        start = complete
        frontier = np.concatenate(new) if new else rows[:0]
        yield frontier, np.concatenate(found), np.concatenate(reached or [np.zeros(0, np.intp)])


def _find(held: tuple, keys: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Index of each sorted key's row in `held` (sorted keys, indices,
    words), -1 if absent; raises _HashCollision where a key's row differs."""
    h_keys, h_index, h_words = held
    at = h_keys.searchsorted(keys)
    np.minimum(at, len(h_keys) - 1, out=at)
    hit = h_keys[at] == keys
    if not (words[hit] == h_words[at[hit]]).all():
        raise _HashCollision
    return np.where(hit, h_index[at], -1).astype(np.int32, copy=False)


def _merged(*held: tuple) -> tuple:
    """Held sets of (sorted keys, indices, words) as one."""
    joined = [np.concatenate(column) for column in zip(*held)]
    order = joined[0].argsort()  # the keys are distinct, so any sort will do
    return tuple(x[order] for x in joined)


def _push(parts: list[tuple], part: tuple) -> None:
    """Append a held set to `parts`, each part merged with those after it
    until it is twice their size, so that n rows are held in O(log n) parts."""
    parts.append(part)
    while len(parts) > 1 and len(parts[-2][0]) < 2 * len(parts[-1][0]):
        parts[-2:] = [_merged(*parts[-2:])]


def _inverse_closed(steps: list[GroupElement]) -> bool:
    encodings = {s.encode() for s in steps}
    return all(s.inverse().encode() in encodings for s in steps)
