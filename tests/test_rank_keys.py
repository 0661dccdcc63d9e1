"""Property tests of the exact row keys (`rowbfs._Keys`) that the growth
BFS and the element BFS share."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from solgrow.elements import MatFpRows, PermRows
from solgrow.rowbfs import _Keys, _column_bounds

INT64 = (-(1 << 63), (1 << 63) - 1)
DTYPES = {"int64": INT64, "uint16": (0, (1 << 16) - 1), "uint32": (0, (1 << 32) - 1)}


def _keys(dtype, lo, hi):
    return _Keys(np.dtype(dtype), np.array(lo, np.int64), np.array(hi, np.int64))


@st.composite
def ranged_rows(draw, max_rows=30):
    """(dtype, lo, hi, rows): rows of the dtype with every column in [lo, hi]."""
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    least, most = DTYPES[dtype]
    width = draw(st.integers(1, 5))
    lo, hi = [], []
    for _ in range(width):
        a, b = sorted(draw(st.lists(st.integers(least, most), min_size=2, max_size=2)))
        if draw(st.booleans()):
            b = min(most, a + draw(st.integers(0, 3)))  # narrow spans, ranked in uint64
        lo.append(a)
        hi.append(b)
    n = draw(st.integers(0, max_rows))
    cells = [[draw(st.integers(a, b)) for a, b in zip(lo, hi)] for _ in range(n)]
    rows = np.array(cells + [lo, hi], dtype=dtype).reshape(-1, width)
    return dtype, lo, hi, rows


@settings(max_examples=200, deadline=None)
@given(ranged_rows())
def test_rows_round_trip_through_keys(case):
    dtype, lo, hi, rows = case
    keys = _keys(dtype, lo, hi)
    got = keys.rows(keys.of(rows))
    assert got.dtype == rows.dtype and (got == rows).all()


@settings(max_examples=200, deadline=None)
@given(ranged_rows())
def test_key_order_is_lexicographic_row_order(case):
    dtype, lo, hi, rows = case
    keys = _keys(dtype, lo, hi).of(rows)
    order = np.argsort(keys, kind="stable")
    assert rows[order].tolist() == sorted(rows.tolist())
    # equal keys exactly for equal rows
    same = keys[:, None] == keys[None, :]
    assert (same == (rows[:, None, :] == rows[None, :, :]).all(axis=2)).all()


@settings(max_examples=200, deadline=None)
@given(ranged_rows(), st.data())
def test_keys_made_again_under_wider_ranges_stay_sorted(case, data):
    dtype, lo, hi, rows = case
    least, most = DTYPES[dtype]
    cell = st.integers(least, most) | st.integers(max(least, lo[0] - 5), min(most, hi[0] + 5))
    more = np.array(
        [[data.draw(cell) for _ in lo] for _ in range(data.draw(st.integers(1, 5)))], dtype
    )
    old = _keys(dtype, lo, hi)
    held = np.unique(old.of(rows))  # sorted, distinct
    wider = old.widened(more)
    if wider is None:
        assert ((more >= lo) & (more <= hi)).all()
        return
    assert (wider.lo <= old.lo).all() and (wider.hi >= old.hi).all()
    assert (wider.rows(wider.of(more)) == more).all()
    again = wider.rekey(held, old)
    assert (np.argsort(again, kind="stable") == np.arange(len(again))).all()
    assert len(np.unique(again)) == len(again)
    assert (wider.rows(again) == old.rows(held)).all()


# Column spans whose product is exactly 2**64 (one word), 2**64 + 1 =
# 274177 * 67280421310721 (two words), and five full int64 columns.
EXACT = [(1 << 64,), (1 << 32, 1 << 32), (1 << 16,) * 4, (2, 1 << 63), (1 << 63, 1, 2)]
OVER = [(274177, 67280421310721), (67280421310721, 1, 274177)]
FULL = (1 << 64,) * 5


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(s, 1) for s in EXACT] + [(s, 2) for s in OVER] + [(FULL, 5)]), st.data())
def test_span_product_of_two_to_the_64_is_the_last_ranked(spans_words, data):
    spans, words = spans_words
    lo = [data.draw(st.integers(INT64[0], INT64[1] - s + 1)) for s in spans]
    hi = [a + s - 1 for a, s in zip(lo, spans)]
    keys = _keys("int64", lo, hi)
    inner = [[data.draw(st.integers(a, b)) for a, b in zip(lo, hi)] for _ in range(5)]
    rows = np.array([lo, hi] + inner, dtype=np.int64)
    got = keys.of(rows)
    assert got.dtype == (np.uint64 if words == 1 else np.dtype(f"V{8 * words}"))
    assert got[:1].tobytes() == bytes(8 * words)  # the least row ranks 0 in every word
    if spans not in OVER:  # each word's spans multiply to 2**64: the greatest ranks 2**64 - 1
        assert got[1:2].tobytes() == b"\xff" * 8 * words
    assert (keys.rows(got) == rows).all()
    assert rows[np.argsort(got, kind="stable")].tolist() == sorted(rows.tolist())


def test_widening_keeps_exact_ranges_when_only_they_rank_in_uint64():
    keys = _keys("int64", [0, 0], [1 << 31, 1 << 31])
    # spans (3 * 2**31 + 1) * (2**31 + 1) < 2**64; widening as far again
    # would give (5 * 2**31 + 1) * (2**31 + 1) > 2**64
    wider = keys.widened(np.array([[3 << 31, 0]]))
    assert len(wider.words) == 1 and wider.hi.tolist() == [3 << 31, 1 << 31]
    # with room to spare, the range widens as far again
    roomy = _keys("int64", [0, 0], [1 << 20, 1 << 20]).widened(np.array([[1 << 21, 0]]))
    assert len(roomy.words) == 1 and roomy.hi.tolist() == [3 << 20, 1 << 20]


@pytest.mark.parametrize("count", [1, 255, 256, 257, 3 * 256 + 17])
@pytest.mark.parametrize("dtype", sorted(DTYPES))
def test_column_bounds_match_row_reductions(count, dtype):
    least, most = DTYPES[dtype]
    rows = np.random.default_rng(count).integers(least, most, (count, 3), dtype=dtype, endpoint=True)
    lo, hi = _column_bounds(rows)
    assert lo.dtype == hi.dtype == rows.dtype
    assert np.array_equal(lo, rows.min(axis=0)) and np.array_equal(hi, rows.max(axis=0))


# The element BFS keys perm and matfp rows over the codec's fixed ranges
# 0..top: one word up to 16**16 = 2**64 (perm degree 16) and 3**36 (6 x 6
# over F_3), more past it.
CODECS = {
    "perm 1": PermRows(1),
    "perm 2": PermRows(2),
    "perm 16": PermRows(16),
    "perm 17": PermRows(17),
    "perm 64": PermRows(64),
    "perm 300": PermRows(300),
    "matfp 6x6 F_3": MatFpRows(6, 3),
    "matfp 4x4 F_17": MatFpRows(4, 17),
    "matfp 2x2 F_65537": MatFpRows(2, 65537),
}


def _codec_keys(codec):
    """Keys over the codec's ranges, as the element BFS makes them."""
    return _keys(codec.dtype, [0] * codec.width, [codec.top] * codec.width)


def _words(codec):
    """uint64 words a row of the codec needs, counted apart from `_Keys`."""
    span = codec.top + 1
    if span == 1:
        return 1
    per = 1
    while span ** (per + 1) <= 1 << 64:
        per += 1
    return -(-codec.width // per)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CODECS)), st.data())
def test_codec_rows_round_trip_through_keys(name, data):
    codec = CODECS[name]
    keys = _codec_keys(codec)
    assert len(keys.words) == _words(codec)
    cells = st.integers(0, codec.top)
    drawn = data.draw(st.lists(st.lists(cells, min_size=codec.width, max_size=codec.width), max_size=20))
    rows = np.array([[0] * codec.width, [codec.top] * codec.width] + drawn, codec.dtype)
    got = keys.of(rows)
    assert got.dtype == (np.uint64 if len(keys.words) == 1 else np.dtype(f"V{8 * len(keys.words)}"))
    assert got[:1].tobytes() == bytes(got.itemsize)  # the least row ranks 0
    back = keys.rows(got)
    assert back.dtype == rows.dtype and (back == rows).all()
    assert rows[np.argsort(got, kind="stable")].tolist() == sorted(rows.tolist())
    same = got[:, None] == got[None, :]
    assert (same == (rows[:, None, :] == rows[None, :, :]).all(axis=2)).all()

