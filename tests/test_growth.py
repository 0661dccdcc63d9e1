"""Growth tables against closed forms and word-enumeration oracles."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import table_of
from oracles import (
    free_group_ball,
    free_group_reduced_words,
    gap_hypothesis_holds,
    lamplighter_ball,
    word_ball_lengths,
    word_ball_sizes,
    z2_ball,
)

import solgrow.growth
from solgrow.catalog import catalog
from solgrow.elements import GenSet, Lamplighter, MatZ, MatZRows
from solgrow.errors import DegenerateWindow
from solgrow.growth import growth_exponent_fit, growth_table, s4_tower, s4_tower_derived
from solgrow.rowbfs import _Keys
from solgrow.table import enumerate_group


def test_z2_formula_small():
    tbl = growth_table(catalog("z2"), 15)
    for n in range(16):
        assert tbl.counts[n] == 2 * n * n + 2 * n + 1 == z2_ball(n)


def test_free_group_formula_small():
    tbl = growth_table(catalog("sanov"), 8)
    for n in range(9):
        assert tbl.counts[n] == 2 * 3**n - 1 == free_group_ball(n)
    assert free_group_reduced_words(8) == tbl.counts[8]


def test_lamplighter_formula():
    # r = 24 is the last radius whose ball (1,618,409) fits the default cap
    assert growth_table(catalog("lamplighter"), 24).counts == lamplighter_ball(24)
    assert lamplighter_ball(24)[-1] == 1_618_409


@pytest.mark.parametrize("p", [3, 5, 11, 13])
def test_lamplighter_quotients_match_the_formula(p):
    # C2 wr C_p is the lamplighter with the head taken mod p. A word of
    # length r keeps the head and lamps within r of 0, so no two elements of
    # the r-ball meet mod p while 2r < p: the balls agree through
    # r = (p - 1) / 2. At r = (p + 1) / 2 the heads t^(p+1)/2 and
    # t^-(p-1)/2 meet, and so do their inverses: the ball is exactly 2 short.
    R = (p + 1) // 2
    want = lamplighter_ball(R)
    counts = growth_table(catalog(f"c2wrc{p}"), R).counts
    assert counts[:R] == want[:R] and counts[R] == want[R] - 2
    # the enumerated table, keyed on two words a row from p = 11 on, agrees
    assert enumerate_group(catalog(f"c2wrc{p}")).growth_counts()[: R + 1] == counts


@pytest.mark.parametrize("name,radius", [("lamplighter", 5), ("s4tower(2)", 4)])
def test_word_oracle_cross_check(name, radius):
    gens = catalog(name)
    tbl = growth_table(gens, radius)
    assert tbl.counts == word_ball_sizes(gens, radius)


def test_treeauto_growth_matches_leaf_permutation_image():
    # the leaf action is faithful, so both models must grow identically
    from solgrow.elements import GenSet

    tree_gens = catalog("s4tower(2)")
    perm_gens = GenSet([g.to_leaf_perm() for g in tree_gens.elements])
    a = growth_table(tree_gens, 3)
    b = growth_table(perm_gens, 3)
    assert a.counts == b.counts


@pytest.mark.parametrize("name", ["s4", "q8", "sl2(3)", "f2^3:c7", "s4tower(1)", "gl1(3)wrs2"])
def test_finite_consistency_with_enumeration(name):
    T = table_of(name)
    hist = T.growth_counts()
    tbl = growth_table(T.gen_set, len(hist) + 3)
    assert tbl.counts == hist  # ball saturates at the diameter


def test_determinism_bit_identical():
    a = growth_table(catalog("heisenberg"), 8)
    b = growth_table(catalog("heisenberg"), 8)
    assert a.to_csv() == b.to_csv()
    assert a.as_dict() == b.as_dict()


@pytest.mark.parametrize("name,radius", [("z2", 12), ("heisenberg", 10), ("s4", 6)])
def test_submultiplicativity(name, radius):
    tbl = growth_table(catalog(name), radius)
    c = tbl.counts
    for m in range(len(c)):
        for n in range(len(c) - m):
            assert c[m + n] <= c[m] * c[n]


def test_level_growth_bound():
    gens = catalog("sanov")
    tbl = growth_table(gens, 7)
    k = 2 * len(gens)
    for n in range(tbl.radius):
        assert tbl.counts[n + 1] <= tbl.counts[n] * (k + 1)
        assert tbl.counts[n] < tbl.counts[n + 1]
    assert tbl.counts[0] == 1


def test_gap_hypothesis_examples():
    z2 = growth_table(catalog("z2"), 30)
    assert gap_hypothesis_holds(z2.counts, theta=1 / 3, C=10)
    fr = growth_table(catalog("sanov"), 10)
    assert not gap_hypothesis_holds(fr.counts, theta=0.5, C=1.0)
    tiny = growth_table(catalog("c2"), 0)
    assert gap_hypothesis_holds(tiny.counts, theta=0.4, C=1.0)  # no radii >= 1: vacuous


def test_truncation_flags():
    tbl = growth_table(catalog("sanov"), 12, max_elements=500)
    assert tbl.truncated and tbl.truncation_reason == "max_elements"
    # every reported count is still exact
    for n in range(tbl.radius + 1):
        assert tbl.counts[n] == 2 * 3**n - 1
    # a cap equal to the radius-2 ball keeps it; radius 3 (53) is dropped whole
    at_cap = growth_table(catalog("sanov"), 12, max_elements=17)
    assert at_cap.counts == [1, 5, 17] and at_cap.truncation_reason == "max_elements"
    # the identity is never counted against the cap
    zero = growth_table(catalog("sanov"), 0, max_elements=0)
    assert zero.counts == [1] and not zero.truncated
    one = growth_table(catalog("sanov"), 1, max_elements=0)
    assert one.counts == [1] and one.truncation_reason == "max_elements"
    # a truncated table knows nothing past its last radius
    with pytest.raises(ValueError):
        tbl.gamma(tbl.radius + 1)


def test_exhausted_ball_saturates():
    # S3 is exhausted at radius 2; the table is exact, so the ball stays |S3|
    tbl = growth_table(catalog("s3"), 10)
    assert not tbl.truncated and tbl.radius == 2 and tbl.requested_radius == 10
    assert [tbl.gamma(r) for r in range(12)] == [1, 4, 6] + [6] * 9
    # computed exactly to the requested radius: nothing known beyond it
    exact = growth_table(catalog("s3"), 2)
    with pytest.raises(ValueError):
        exact.gamma(3)


def _oracle_ball(gens, radius):
    """Ball sizes up to the radius or to exhaustion."""
    dist = word_ball_lengths(gens, radius)
    sizes = [sum(1 for d in dist.values() if d <= r) for r in range(radius + 1)]
    while len(sizes) > 1 and sizes[-1] == sizes[-2]:
        sizes.pop()
    return sizes


@pytest.fixture()
def dict_path_runs(monkeypatch):
    """Number of growth tables counted on the element BFS's encoding dict."""
    runs = []
    element_bfs = solgrow.growth.element_bfs

    def spy(*args, **kwargs):
        runs.append(args[0])
        return element_bfs(*args, **kwargs)

    monkeypatch.setattr(solgrow.growth, "element_bfs", spy)
    return runs


def _check_against_oracle(gens, radius):
    sizes = _oracle_ball(gens, radius)
    tbl = growth_table(gens, radius)
    assert tbl.counts == sizes and not tbl.truncated
    for cap in (0, 5, 17, 100):
        kept = [1] + [c for c in sizes[1:] if c <= cap]
        capped = growth_table(gens, radius, max_elements=cap)
        assert capped.counts == kept
        assert capped.truncation_reason == ("max_elements" if kept != sizes else None)


SPHERE_CASES = [
    (catalog("sanov"), 8),
    (catalog("z2"), 40),
    (catalog("heisenberg"), 10),
    (catalog("lamplighter"), 12),
    (GenSet([Lamplighter([-3, 2], 2), Lamplighter([0], 0)]), 7),  # several lamps, negative
    (GenSet([Lamplighter([], 40), Lamplighter([0], 0)]), 12),  # rows append a mask word
    (GenSet([MatZ(1, [[-1]])]), 4),  # one entry: "(-1,)"
    (GenSet([MatZ(2, [[3, 1], [2, 1]]), MatZ(2, [[1, 1], [0, 1]])]), 9),
    (catalog("s4"), 20),
    (catalog("gl2(3)"), 20),
    (catalog("agl1(64)"), 40),
    # rows append words within a level: lamps +-70, bits 139 and 140 ...
    (GenSet([Lamplighter([], 70), Lamplighter([0], 0)]), 8),
    # ... and lamps -65 and -68 at radius 1, then lamps on both sides of 0
    (GenSet([Lamplighter([-65], 3), Lamplighter([0], 0)]), 8),
]


@pytest.mark.parametrize("gens,radius", SPHERE_CASES)
def test_sphere_path_matches_word_oracle(gens, radius, dict_path_runs):
    _check_against_oracle(gens, radius)
    assert not dict_path_runs


@pytest.fixture()
def compacted_key_kinds(monkeypatch):
    """The dtypes of the keys of every compaction into a new sphere."""
    kinds = []
    compact = solgrow.growth._compact

    def spy(keys, held):
        kinds.append({keys.dtype, *(h.dtype for h in held)})
        return compact(keys, held)

    monkeypatch.setattr(solgrow.growth, "_compact", spy)
    return kinds


@pytest.mark.parametrize(
    "name,radius",
    [
        ("sanov", 12),
        ("z2", 40),
        ("heisenberg", 10),
        ("lamplighter", 12),
        # the radii of perfbench's growth jobs
        ("lamplighter", 20),
        ("z2", 200),
        ("heisenberg", 24),
    ],
)
def test_catalog_balls_rank_into_uint64(name, radius, compacted_key_kinds):
    # every level compacts at least once; none may need a second key word
    assert growth_table(catalog(name), radius).radius == radius
    assert len(compacted_key_kinds) >= radius
    assert all(kinds == {np.dtype(np.uint64)} for kinds in compacted_key_kinds)


@pytest.fixture()
def word_switches(monkeypatch):
    """The number of keys of each rekey from one word to two; every rekey
    is checked against the keys of its decoded rows."""
    switched = []
    rekey = _Keys.rekey

    def spy(self, keys, old, out=None):
        if len(old.words) == 1 and len(self.words) == 2:
            switched.append(len(keys))
        rows = old.rows(keys)  # before `out`, which may be `keys`, is written
        again = rekey(self, keys, old, out)
        # made again block by block, as if decoded whole
        assert again.dtype == self.of(rows[:0]).dtype
        assert again.tobytes() == self.of(rows).tobytes()
        return again

    monkeypatch.setattr(_Keys, "rekey", spy)
    return switched


def test_keys_widen_to_two_words(monkeypatch, compacted_key_kinds, word_switches, dict_path_runs):
    # the entries' spans pass 2**64 at radius 9: the first and last blocks of
    # S_8 widen the ranges to two words before the level's first key
    monkeypatch.setattr(solgrow.growth, "_BLOCK", 64)
    gens = GenSet([MatZ(2, [[3, 1], [2, 1]]), MatZ(2, [[1, 1], [0, 1]])])
    assert growth_table(gens, 9).counts == _oracle_ball(gens, 9)
    assert not dict_path_runs
    assert set().union(*compacted_key_kinds) == {np.dtype(np.uint64), np.dtype("V16")}
    # both held spheres (S_7 and S_8), and the level's buffer with no key yet
    assert word_switches == [2506, 7030, 0]


def test_keys_widen_to_two_words_partway(monkeypatch, compacted_key_kinds, word_switches):
    # Sanov's matrices with 3 generate a free group of rank 2. With small
    # blocks, a middle block of S_8 passes 2**64 once the level has been
    # compacted once and more keys have been written behind it
    monkeypatch.setattr(solgrow.growth, "_BLOCK", 64)
    gens = GenSet([MatZ(2, [[1, 3], [0, 1]]), MatZ(2, [[1, 0], [3, 1]])])
    assert growth_table(gens, 9).counts == [2 * 3**r - 1 for r in range(10)]
    assert set().union(*compacted_key_kinds) == {np.dtype(np.uint64), np.dtype("V16")}
    # both held spheres (S_7 and S_8), then the keys written so far
    assert word_switches == [2916, 8748, 6256]


@pytest.mark.parametrize(
    "name,radius,rekeyed",
    # the growth jobs of perfbench
    [("sanov", 12, 472_390), ("lamplighter", 20, 226_340), ("heisenberg", 24, 218_790), ("z2", 200, 78_805)],
)
def test_ranges_widen_before_a_level_is_keyed(monkeypatch, name, radius, rekeyed):
    # events: the keys of each rekey, "key" for each block of products keyed,
    # and "level" after each level
    events, inside = [], []
    rekey, of, levels = _Keys.rekey, _Keys.of, solgrow.growth._sphere_levels

    def spy_rekey(self, keys, old, out=None):
        events.append(len(keys))
        inside.append(True)  # its own keys are not product keys
        try:
            return rekey(self, keys, old, out)
        finally:
            inside.pop()

    def spy_of(self, rows):
        if not inside:
            events.append("key")
        return of(self, rows)

    def spy_levels(*args):
        for size in levels(*args):
            events.append("level")
            yield size

    monkeypatch.setattr(_Keys, "rekey", spy_rekey)
    monkeypatch.setattr(_Keys, "of", spy_of)
    monkeypatch.setattr(solgrow.growth, "_sphere_levels", spy_levels)
    assert growth_table(catalog(name), radius).radius == radius
    assert sum(e for e in events if isinstance(e, int)) == rekeyed
    level: list = []
    for event in events:
        if event == "level":
            assert "key" in level  # every level keys its products
            level = []
        else:
            assert event == "key" or "key" not in level  # no rekey after a key
            level.append(event)


def test_ball_memory_is_a_few_final_spheres():
    # S_12 of the free group holds 708,588 keys of 8 bytes. The level's key
    # buffer (4 keys a row of S_11: 2 spheres), the buffers that S_10 and
    # S_11 are the fronts of (0.9 spheres) and a block's rows and products
    # peak at about 3.05 spheres.
    tracemalloc.start()
    try:
        assert growth_table(catalog("sanov"), 12).counts[-1] == 1_062_881
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 708_588 * 8


def test_free_group_past_one_key_word():
    # Sanov's generators generate a free group of rank 2, so gamma(r) =
    # 2 * 3**r - 1; radius 13 needs two key words
    tbl = growth_table(catalog("sanov"), 13, max_elements=3_200_000)
    assert tbl.counts == [2 * 3**r - 1 for r in range(14)]


def test_matz_overflow_falls_back_to_encodings(dict_path_runs):
    # entries of 2**40 pass int64 within a few radii; the run starts again
    # from radius 0 on the encoding dict
    gens = GenSet([MatZ(2, [[1, 2**40], [0, 1]]), MatZ(2, [[1, 0], [2**40, 1]])])
    assert growth_table(gens, 5).counts == _oracle_ball(gens, 5)
    assert len(dict_path_runs) == 1


@pytest.mark.parametrize(
    "gens,closed",
    [
        # BFS over X only: these steps are not inverse-closed
        (GenSet(catalog("s4").elements, symmetric=False), False),
        (GenSet([MatZ(2, [[1, 1], [0, 1]]), MatZ(2, [[1, 0], [1, 1]])], symmetric=False), False),
        # inverse-closed by hand
        (GenSet([g for x in catalog("heisenberg") for g in (x, x.inverse())], symmetric=False), True),
        (GenSet([Lamplighter([], 1), Lamplighter([], -1), Lamplighter([0], 0)], symmetric=False), True),
    ],
)
def test_unsymmetric_sets_match_word_oracle(gens, closed, dict_path_runs):
    _check_against_oracle(gens, 8)
    assert bool(dict_path_runs) != closed


def test_element_cap_stops_a_level_early(monkeypatch):
    # the cap is checked between blocks of a level, not after the whole level
    monkeypatch.setattr(solgrow.growth, "_BLOCK", 64)  # 16 frontier rows of sanov
    gens = catalog("sanov")
    full = growth_table(gens, 7).counts
    expanded = []
    products = MatZRows.products

    def spy(self, frontier, steps):
        expanded.append(len(frontier))
        return products(self, frontier, steps)

    monkeypatch.setattr(MatZRows, "products", spy)
    tbl = growth_table(gens, 7, max_elements=full[6] + 1)
    assert tbl.counts == full[:7] and tbl.truncation_reason == "max_elements"
    # the spheres S_0..S_5 in full and less than half of S_6
    assert full[5] < sum(expanded) < full[5] + (full[6] - full[5]) // 2


def test_fit_z2():
    tbl = growth_table(catalog("z2"), 25)
    fit = growth_exponent_fit(tbl)
    assert fit.kind == "polynomial"
    assert abs(fit.parameter - 2.0) <= 0.2


def test_fit_free_group():
    tbl = growth_table(catalog("sanov"), 10)
    fit = growth_exponent_fit(tbl)
    assert fit.kind == "stretched_exponential"
    assert abs(fit.parameter - 1.0) <= 0.15


def test_fit_degenerate_window():
    tbl = growth_table(catalog("z2"), 4)
    with pytest.raises(DegenerateWindow):
        growth_exponent_fit(tbl, window=(3, 2))
    with pytest.raises(DegenerateWindow):
        growth_exponent_fit(tbl, window=(0, 4))


def _s4_tower_order(depth: int) -> int:
    # the tower has (4^d - 1)/3 nodes above the leaves, a Sym(4) at each
    return 24 ** ((4**depth - 1) // 3)


def _s4_tower_derived_order(depth: int) -> int:
    # The abelianization is C2 (depth 1) or C2 x C2 (top sign, base sign).
    return _s4_tower_order(depth) // (2 if depth == 1 else 4)


def test_s4_tower_depth1():
    T = enumerate_group(s4_tower(1))
    assert T.n == 24 == _s4_tower_order(1)
    D = enumerate_group(s4_tower_derived(1))
    assert D.n == 12 == _s4_tower_derived_order(1)


def test_s4_tower_depth2_structure():
    gens = s4_tower(2)
    assert _s4_tower_order(2) == 24**5
    # the truncation acts on 16 leaves; generator actions check out
    for g in gens.elements:
        assert g.to_leaf_perm().degree == 16
    # level-1 generators fix the block decomposition of the 16 leaves
    lvl1 = gens.elements[2]
    leaf = lvl1.to_leaf_perm()
    for leaf_idx in range(16):
        assert leaf(leaf_idx) // 4 == leaf_idx // 4


def test_s4_tower_derived_in_kernel_of_abelianization():
    # both sign characters (root label, product of level-1 labels) vanish
    def sign(label):
        inv = 0
        for i in range(4):
            for j in range(i + 1, 4):
                if label[i] > label[j]:
                    inv += 1
        return inv % 2

    for g in s4_tower_derived(2).elements:
        assert sign(g.label(())) == 0
        assert sum(sign(g.label((c,))) for c in range(4)) % 2 == 0


def test_s4_tower_derived_depth2_sampled_subgroups():
    # full enumeration is gated (24^5/4 elements); verify sampled subgroups
    # at the permutation level on the 16 leaves instead
    from solgrow.elements import GenSet
    from solgrow.table import enumerate_group as enum

    gens = s4_tower_derived(2)
    root_a4 = enum(GenSet([g.to_leaf_perm() for g in gens.elements[:2]]))
    assert root_a4.n == 12
    pair = enum(GenSet([gens.elements[2].to_leaf_perm()]))
    assert pair.n == 2
    mixed = enum(GenSet([g.to_leaf_perm() for g in gens.elements[:3]]), cap=100_000)
    assert _s4_tower_derived_order(2) % mixed.n == 0


def test_growth_csv_shape():
    tbl = growth_table(catalog("z2"), 3)
    assert tbl.to_csv() == "radius,gamma\n0,1\n1,5\n2,13\n3,25\n"
