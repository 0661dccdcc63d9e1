"""Enumeration, exact word lengths, and table axioms."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from collections.abc import Sequence as SequenceABC

import numpy as np
import pytest

from oracles import (
    center,
    direct_product,
    object_enumeration,
    parent_chain_inverses,
    subgroup_table,
    unique_rule_bfs,
    word_ball_lengths,
    word_ball_sizes,
)
from conftest import CORPUS_SMALL, table_of

import solgrow.rowbfs as rowbfs
import solgrow.table as table
from solgrow.catalog import catalog
from solgrow.elements import GenSet, MatFp, Perm, RowElements
from solgrow.errors import CapExceeded, InvariantViolated
from solgrow.smallcases import witness_group
from solgrow.table import (
    FiniteGroupTable,
    Subgroup,
    commutator_subgroup,
    element_bfs,
    enumerate_group,
    quotient,
    subgroup_generated,
    trivial_subgroup,
    whole_group,
)


def test_sym3_hand_enumeration():
    # X = {(0 1), (0 1 2)}: hand enumeration gives lengths {0:1, 1:3, 2:2}.
    T = table_of("s3")
    assert T.n == 6
    assert sorted(T.word_length) == [0, 1, 1, 1, 2, 2]
    assert T.growth_counts() == [1, 4, 6]


def test_order_two_group():
    T = enumerate_group(GenSet([Perm([1, 0])]))
    assert T.n == 2
    assert sorted(T.word_length) == [0, 1]


def test_q8_matrix_generators():
    T = table_of("q8")
    assert T.n == 8
    involutions = [i for i in range(T.n) if i != 0 and T.mul(i, i) == 0]
    assert len(involutions) == 1
    i_gen = T.generators[0]
    assert T.order_of(i_gen) == 4
    sq = T.mul(i_gen, i_gen)
    assert sq == involutions[0]


def test_cap_exceeded():
    # S4's balls are 1, 4, 9, 15, 20, 23, 24; a cap reports the last whole one
    with pytest.raises(CapExceeded) as exc:
        enumerate_group(catalog("s4"), cap=10)
    assert exc.value.last_completed == 9
    with pytest.raises(CapExceeded) as exc:
        enumerate_group(catalog("s4"), cap=23)
    assert exc.value.last_completed == 23
    assert enumerate_group(catalog("s4"), cap=24).n == 24


def test_cap_mid_level_on_row_path():
    # gl2(3) runs on the matrix rows; a cap inside a level reports the ball before it
    X = catalog("gl2(3)")
    assert X.row_codec() is not None
    counts = table_of("gl2(3)").growth_counts()
    for cap in (counts[2], counts[2] + 1, counts[3] - 1):
        with pytest.raises(CapExceeded) as exc:
            enumerate_group(X, cap=cap)
        assert exc.value.last_completed == counts[2]


# Generating sets whose generator indices the radius-1 products must get
# right: a repeated generator, the identity, and no inverses adjoined.
_CYCLE, _CYCLE_INV, _SWAP = Perm([1, 2, 3, 0]), Perm([3, 0, 1, 2]), Perm([1, 0, 2, 3])
_ODD_GENSETS = {
    "repeated": lambda: GenSet([_SWAP, _CYCLE, _SWAP]),
    "identity": lambda: GenSet([_CYCLE, Perm([0, 1, 2, 3]), _SWAP], allow_identity=True),
    "asymmetric": lambda: GenSet([_CYCLE, _CYCLE_INV, _SWAP], symmetric=False),
    # not inverse-closed: every level found so far is held for lookups
    "one-way": lambda: GenSet([_CYCLE, _SWAP], symmetric=False),
    # adjacent transpositions: each step is its own inverse and appears twice
    "involutions": lambda: GenSet([Perm([1, 0, 2, 3]), Perm([0, 2, 1, 3]), Perm([0, 1, 3, 2])]),
}


@pytest.mark.parametrize(
    "name",
    ["s3", "s4", "q8", "sl2(3)", "agl1(5)", "c2wrc2", "gl3(2)", "gammal1(16)", "s4wrs2", "agl1(17)"]
    + list(_ODD_GENSETS),
)
def test_row_table_matches_object_loop(name):
    X = _ODD_GENSETS[name]() if name in _ODD_GENSETS else catalog(name)
    assert X.row_codec() is not None
    T = enumerate_group(X)
    ref = object_enumeration(X)
    assert [g.encode() for g in T.elements] == ref["encodings"]
    assert list(T.inv_idx) == ref["inv_idx"]
    assert T.generators == ref["generators"]
    assert [a.tolist() for a in T._actions] == ref["actions"]
    assert list(T.word_length) == ref["word_length"]
    assert [T.elements[i].encode() for i in range(T.n)] == ref["encodings"]
    assert all(T.elements[i] == ref["elements"][i] for i in (0, T.n // 2, -1))


# Steps closed under inverses (by encoding), and the work of an enumeration
# with them: the back edges x * s, one level down, are filled in from the
# level before and never keyed.
_KEYED_CASES = {
    "s4wrs2": (lambda: catalog("s4wrs2"), True),
    "involutions": (_ODD_GENSETS["involutions"], True),
    "repeated": (_ODD_GENSETS["repeated"], True),
    "asymmetric": (_ODD_GENSETS["asymmetric"], True),
    "identity": (_ODD_GENSETS["identity"], True),
    "one-way": (_ODD_GENSETS["one-way"], False),
}


def _keyed_products(X, monkeypatch):
    """Product rows keyed while enumerating <X>, leaving out the identity's own."""
    keyed = []
    of = rowbfs._Keys.of
    monkeypatch.setattr(rowbfs._Keys, "of", lambda self, rows: keyed.append(len(rows)) or of(self, rows))
    T = enumerate_group(X)
    monkeypatch.undo()
    return T, sum(keyed) - 1


def _back_edges(T):
    wl = np.asarray(T.word_length)
    return int((wl[T._actions] < wl).sum())


@pytest.mark.parametrize("name", list(_KEYED_CASES))
def test_products_keyed_leave_out_the_back_edges(name, monkeypatch):
    make, closed = _KEYED_CASES[name]
    T, keyed = _keyed_products(make(), monkeypatch)
    products = T.n * len(T.step_refs)
    assert keyed == products - (_back_edges(T) if closed else 0)
    assert _back_edges(T) > 0
    _assert_matches_object_loop(T.gen_set, T)


def test_products_keyed_pinned(monkeypatch):
    T, keyed = _keyed_products(catalog("s4wrs2"), monkeypatch)
    assert (keyed, T.n * len(T.step_refs)) == (3_456, 6_912)
    T, keyed = _keyed_products(witness_group("gammal1(8)wrs3")[1].gen_set, monkeypatch)
    assert (keyed, T.n * len(T.step_refs)) == (307_818, 444_528)


# uint64 key words of each row: perm degree 16 ranks 16**16 = 2**64 rows
# in one, degree 17 is the first to need two; 6 x 6 over F_3 ranks 3**36.
_KEY_WORDS = {"s4wrs2": 1, "agl1(16)": 1, "agl1(17)": 2, "c2wrc11": 2, "agl1(64)": 7, "gl2(3)wrs3": 1}


@pytest.mark.parametrize("name", list(_KEY_WORDS))
def test_row_keys_pinned_words(name, monkeypatch):
    X = catalog(name)
    made, of = [], rowbfs._Keys.of

    def spy(self, rows):
        keys = of(self, rows)
        made.append((len(self.words), keys.dtype))
        return keys

    monkeypatch.setattr(rowbfs._Keys, "of", spy)
    for _level in zip(range(3), table.element_bfs(X, table.DEFAULT_CAP)):
        pass
    words = _KEY_WORDS[name]
    assert set(made) == {(words, np.dtype(np.uint64) if words == 1 else np.dtype(f"V{8 * words}"))}


def _dihedral_mod(p):
    # the dihedral group of order 8 over F_p, conjugated so that its entries
    # are large: before reduction, product entries reach 1.5 * (p - 1)^2
    A = MatFp(2, p, [[1, (p - 1) // 2], [0, 1]])
    gens = [MatFp(2, p, [[0, 1], [p - 1, 0]]), MatFp(2, p, [[p - 1, 0], [0, 1]])]
    return GenSet([A * g * A.inverse() for g in gens])


def _assert_matches_object_loop(X, T):
    ref = object_enumeration(X)
    assert [g.encode() for g in T.elements] == ref["encodings"]
    assert [a.tolist() for a in T._actions] == ref["actions"]
    assert list(T.word_length) == ref["word_length"]
    assert list(T.inv_idx) == ref["inv_idx"]


def test_matfp_below_the_float_bound_runs_on_rows():
    # the largest prime with 2 * (p - 1)^2 < 2^53: float64 products are exact
    p = 67108859
    X = _dihedral_mod(p)
    assert X.row_codec() is not None
    assert 2 * (p - 1) ** 2 < 2**53 <= 2 * 67108878**2  # 67108879 is the next prime
    T = enumerate_group(X)
    assert T.n == 8 and isinstance(T.elements, RowElements)
    _assert_matches_object_loop(X, T)


def test_matfp_overflow_takes_object_path():
    # 2 * (p - 1)^2 reaches 2^53, past which float64 products are not exact,
    # so products stay objects
    p = 67108879
    X = _dihedral_mod(p)
    assert X.row_codec() is None
    T = enumerate_group(X)
    assert T.n == 8 and isinstance(T.elements, list)
    ref = object_enumeration(X)
    assert [g.encode() for g in T.elements] == ref["encodings"]
    assert list(T.inv_idx) == ref["inv_idx"]
    product = _element_product(T)
    assert all(T.mul(i, j) == product(i, j) for i in range(T.n) for j in range(T.n))


_BOUNDARY_GENSETS = {
    # S4 on four points of a larger degree; every row holds each point, so
    # degree 257 needs two bytes an entry
    "perm 256": lambda: _s4_moving(0, 253, 254, 255),
    "perm 257": lambda: _s4_moving(0, 254, 255, 256),
    "matfp 251": lambda: _dihedral_mod(251),
    "matfp 257": lambda: _dihedral_mod(257),
    "matfp 67108859": lambda: _dihedral_mod(67108859),
}


def _s4_moving(a, b, c, d):
    degree = d + 1
    return GenSet([Perm.from_cycles(degree, [(a, d)]), Perm.from_cycles(degree, [(b, c, d)])])


@pytest.mark.parametrize(
    "name, dtype",
    zip(_BOUNDARY_GENSETS, ["u1", "<u2", "u1", "<u2", "<u4"]),
)
def test_rows_take_the_narrowest_dtype(name, dtype):
    X = _BOUNDARY_GENSETS[name]()
    T = enumerate_group(X)
    assert X.row_codec().dtype == T.elements.rows.dtype == np.dtype(dtype)
    _assert_matches_object_loop(X, T)


_BFS_CASES = {name: (lambda name=name: catalog(name)) for name in CORPUS_SMALL}
_BFS_CASES.update(_ODD_GENSETS)
_BFS_CASES["object path"] = lambda: _dihedral_mod(67108879)


@pytest.mark.parametrize("name", list(_BFS_CASES))
def test_enumeration_hands_its_bfs_to_the_table(name, monkeypatch):
    # The table takes word lengths, BFS parents and levels from the element
    # BFS and runs none of its own; they are those of a BFS over its actions.
    X = _BFS_CASES[name]()

    def second_bfs(*_args):
        raise AssertionError("enumerated table ran its own BFS")

    monkeypatch.setattr(table, "_cayley_bfs", second_bfs)
    T = enumerate_group(X)
    monkeypatch.undo()
    wl, parent, step, levels = table._cayley_bfs(T._actions, T.n)
    assert list(T.word_length) == wl.tolist()
    assert list(T._parent) == parent.tolist()
    assert list(T._parent_step) == step.tolist()
    indices = np.arange(T.n)
    assert [indices[level].tolist() for level in T._levels] == [lv.tolist() for lv in levels]


def _derived_tables(name):
    """A quotient, a subgroup table and a direct product, each built from
    the table of `name` and running its own BFS over its step actions."""
    T = table_of(name)
    G = whole_group(T)
    D = commutator_subgroup(T, G, G)
    return [quotient(T, D).table, subgroup_table(T, D), direct_product(T, table_of("s3"))]


@pytest.mark.parametrize("name", CORPUS_SMALL)
def test_derived_bfs_matches_the_unique_rule(name):
    # each new index's least reaching position, found by `minimum.at`, is
    # the first occurrence `np.unique` finds
    for T in _derived_tables(name):
        wl, parent, step, levels = unique_rule_bfs(T._actions, T.n)
        got = table._cayley_bfs(T._actions, T.n)
        for array, expected in zip(got, (wl, parent, step)):
            assert array.dtype == expected.dtype and np.array_equal(array, expected)
        assert [level.tolist() for level in got[3]] == [level.tolist() for level in levels]
        assert list(T.word_length) == wl.tolist() and list(T._parent) == parent.tolist()
        assert list(T._parent_step) == step.tolist()


def test_enumerated_tables_hold_few_bytes_per_element():
    # Held per element: its row, one int32 per step action, and int32 word
    # length, BFS parent, parent step and inverse; the build peak (the
    # element BFS) is a small multiple of that.
    for name, peak_ratio in (("gl2(2)wrs4", 2), ("gammal1(1024)", 4)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            T = enumerate_group(catalog(name))
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        rows = T.elements.rows
        assert rows.dtype == np.uint8
        per_element = rows.shape[1] + 4 * len(T.step_refs) + 4 * 4
        assert per_element * T.n < held < per_element * T.n + 2**16
        assert peak < peak_ratio * held


@pytest.mark.parametrize("name", ["s4", "gl2(3)"])
def test_row_index_matches_the_scan(name):
    T = table_of(name)
    probes = [T.elements[i] for i in (0, 1, T.n // 2, T.n - 1)] + [
        Perm([1, 0, 2, 3, 4]),
        Perm([1, 0, 3, 2]),
        MatFp(2, 3, [[1, 1], [0, 1]]),
        MatFp(2, 5, [[1, 1], [0, 1]]),
        3,
    ]

    def position(index, g, *bounds):
        try:
            return index(g, *bounds)
        except ValueError:
            return None

    for g in probes:
        for bounds in ((), (1,), (-T.n // 2,), (1, T.n - 1), (0, -1)):
            expected = position(lambda *a: SequenceABC.index(T.elements, *a), g, *bounds)
            assert position(T.elements.index, g, *bounds) == expected


# sha256 of each witness model's step actions (int32) and then its element
# rows, recorded when enumeration still deduplicated by encoding in a dict
# and rows were <u2 (perm) and <u4 (matfp) entries: rows are widened to
# those before hashing. These groups are too large for the object loop;
# the digests pin their index order.
_WITNESS_DIGESTS = {
    "gammal1(8)wrs3": "c6852f69685ee531dfe7dea89eab2d4f058af04cde6feb635bc33a93ad44b4b8",
    "gammal1(32)wrs2": "663928606bdfe0814b92e89e9175b5db1cf59123a0e44f56ad33ac074de94739",
    "gl2(2)wrs4": "2257ae96ba026a8183c3366f34f0762211a73dae9dc4317df9b8a5ca09d664a9",
    "gammal1(1024)": "3465af8d73ceb329d022dd37b2d40f0539a4ffe10e69ec8028e5f9716d8b7371",
}


@pytest.mark.parametrize("name", list(_WITNESS_DIGESTS))
def test_witness_tables_pinned(name):
    _gens, T = witness_group(name)
    digest = hashlib.sha256()
    for action in T._actions:
        digest.update(np.ascontiguousarray(action, "<i4").tobytes())
    recorded = "<u2" if T.gen_set.variant == "perm" else "<u4"
    digest.update(np.ascontiguousarray(T.elements.rows, recorded).tobytes())
    assert digest.hexdigest() == _WITNESS_DIGESTS[name]


def test_uneven_step_actions_rejected():
    # the order is the length of the first action; a shorter one is rejected
    swap = np.array([1, 0], dtype=np.int32)
    with pytest.raises(InvariantViolated, match="differ in length"):
        FiniteGroupTable([1], [1, -1], [swap, np.array([0], dtype=np.int32)])


def test_steps_that_do_not_generate_rejected():
    # index 1 is unreachable when both steps fix every index
    fixed = np.array([0, 1], dtype=np.int32)
    with pytest.raises(InvariantViolated, match="do not generate"):
        FiniteGroupTable([1], [1, -1], [fixed, fixed])


def test_quotient_by_a_non_subgroup_rejected():
    # {1, g} in C3 = <g> passes the normality test on its generator but is
    # no subgroup: its translates cover the group with overlaps
    T = table_of("c3")
    g = T.generators[0]
    fake = Subgroup(bytes(x in (0, g) for x in range(T.n)), (g,))
    with pytest.raises(InvariantViolated, match="do not partition"):
        quotient(T, fake)


def test_element_bfs_levels():
    X = catalog("s3")
    k = len(X.bfs_steps())
    levels = list(element_bfs(X, 6))
    assert [len(new) for new, *_ in levels] == [1, 3, 2, 0]
    # each level carries the products of the level before, one per step
    assert [len(products) for _, products, _ in levels] == [0, k * 1, k * 3, k * 2]
    rows = np.concatenate([new for new, *_ in levels])
    assert np.array_equal(rows, table_of("s3").elements.rows)


@pytest.mark.parametrize("name", ["s3", "s4", "q8", "sl2(3)", "agl1(5)", "c2wrc2"])
def test_word_lengths_match_word_oracle(name):
    T = table_of(name)
    oracle = word_ball_lengths(T.gen_set, T.diameter())
    assert all(oracle[g.encode()] == d for g, d in zip(T.elements, T.word_length))


@pytest.mark.parametrize("name", ["s3", "s4", "q8", "gl2(3)", "f2^3:c7"])
def test_cayley_descent(name):
    # every nonidentity element has a generator step reducing its length
    T = table_of(name)
    steps = [g for g in T.generators] + [T.inv_idx[g] for g in T.generators]
    for x in range(1, T.n):
        assert any(T.word_length[T.mul(x, s)] == T.word_length[x] - 1 for s in steps)


@pytest.mark.parametrize("name", ["s4", "sl2(3)", "f3^2:q8"])
def test_table_axioms(name):
    T = table_of(name)
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.randrange(T.n) for _ in range(3))
        assert T.mul(T.mul(a, b), c) == T.mul(a, T.mul(b, c))
    for x in range(T.n):
        assert T.mul(x, 0) == x and T.mul(0, x) == x
        assert T.mul(x, T.inv_idx[x]) == 0 and T.mul(T.inv_idx[x], x) == 0


@pytest.mark.parametrize("name", ["s4", "gl2(3)"])
def test_growth_counts_monotone(name):
    T = table_of(name)
    counts = T.growth_counts()
    assert counts[0] == 1
    assert all(counts[i] < counts[i + 1] for i in range(len(counts) - 1))
    k = 2 * len(T.generators)
    assert all(
        counts[i + 1] <= counts[i] * (k + 1) for i in range(len(counts) - 1)
    )


def test_word_reconstruction():
    T = table_of("s4")
    for x in range(T.n):
        w = T.word(x)
        assert len(w) == T.word_length[x]
        assert T.evaluate_word(w) == x


def _element_product(T):
    index = {g.encode(): i for i, g in enumerate(T.elements)}
    return lambda i, j: index[(T.elements[i] * T.elements[j]).encode()]


def _quotient_case():
    # sl2(3) by its centre {+-I}: products of coset representatives in the
    # parent's element product, mapped back to cosets.
    G = table_of("sl2(3)")
    Q = quotient(G, center(G))
    parent = _element_product(G)
    return Q.table, lambda a, b: Q.coset_of[parent(Q.reps[a], Q.reps[b])]


def _subgroup_case():
    T = table_of("s4")
    sub = subgroup_table(T, commutator_subgroup(T, whole_group(T), whole_group(T)))
    assert sub.n == 12
    return sub, _element_product(sub)


def _direct_product_case():
    A, B = table_of("s3"), table_of("q8")
    pa, pb = _element_product(A), _element_product(B)

    def product(x, y):
        (i, j), (k, l) = divmod(x, B.n), divmod(y, B.n)
        return pa(i, k) * B.n + pb(j, l)

    return direct_product(A, B), product


DENSE_CASES = {
    "s4": lambda: (table_of("s4"), _element_product(table_of("s4"))),
    "sl2(3)": lambda: (table_of("sl2(3)"), _element_product(table_of("sl2(3)"))),
    "sl2(3)/centre": _quotient_case,
    "s4-subgroup": _subgroup_case,
    "s3xq8": _direct_product_case,
}


def _fresh(T):
    """A new table over T's steps, on which no product has been formed."""
    return FiniteGroupTable(T.generators, T.step_refs, T._actions)


@pytest.mark.parametrize("name", list(DENSE_CASES))
def test_dense_table_agrees_with_elementwise(name):
    # perm, matrix, quotient, subgroup and direct-product tables all
    # multiply by walking geodesics through their step actions; every
    # product of a fresh table is checked.
    T, product = DENSE_CASES[name]()
    T = _fresh(T)
    for i in range(T.n):
        assert product(i, T.inv_idx[i]) == 0
        for j in range(T.n):
            got = T.mul(i, j)
            assert type(got) is int and got == product(i, j)


@pytest.mark.parametrize("name", list(DENSE_CASES))
def test_rows_built_in_any_order_agree_with_elementwise(name):
    # Right actions formed in a shuffled order on a fresh table match the
    # element products.
    T, product = DENSE_CASES[name]()
    T = _fresh(T)
    order = list(range(T.n))
    random.Random(name).shuffle(order)
    for j in order:
        row = T.right_action(j)
        assert row.dtype == np.int32
        assert row.tolist() == [product(i, j) for i in range(T.n)]


def test_mul_on_fresh_tables_matches_elementwise():
    T = enumerate_group(catalog("s4wrs2"))
    product = _element_product(T)
    rng = random.Random(3)
    for j in rng.sample(range(T.n), 25):
        fresh = _fresh(T)
        i = rng.randrange(T.n)
        got = fresh.mul(i, j)
        assert type(got) is int and got == product(i, j)


def test_small_subgroup_is_closed_under_products():
    T = enumerate_group(catalog("agl1(64)"))
    assert T.n == 4032
    g = T.generators[0]
    H = subgroup_generated(T, [g, T.conj(g, T.generators[1])])
    assert H.order < T.n
    assert all(T.mul(y, x) in H for x in H.generators for y in H.members)


def test_geodesic_walk_above_dense_limit():
    T = enumerate_group(catalog("s7"))
    assert T.n == 5040
    product = _element_product(T)
    rng = random.Random(11)
    for _ in range(2000):
        i, j = rng.randrange(T.n), rng.randrange(T.n)
        got = T.mul(i, j)
        assert type(got) is int and got == product(i, j)


@pytest.mark.parametrize("name", ["s4", "sl2(3)/centre", "s3xq8", "s7"])
def test_conjugation_action_matches_element_products(name):
    if name == "s7":
        T = table_of("s7")
        product = _element_product(T)
        conjugators = random.Random(5).sample(range(T.n), 12)
    else:
        T, product = DENSE_CASES[name]()
        conjugators = range(T.n)
    for g in conjugators:
        action = T.conjugation_action(g)
        for x in range(0, T.n, 1 + T.n // 200):
            assert action[x] == product(product(T.inv_idx[g], x), g)


@pytest.mark.parametrize("name", ["s4", "sl2(3)/centre", "s4-subgroup", "s3xq8"])
def test_conjugates_match_conj(name):
    T = DENSE_CASES[name]()[0]
    C = T.conjugates(range(T.n))
    assert C.shape == (T.n, T.n)
    for x in range(T.n):
        assert C[x].tolist() == [T.conj(x, g) for g in range(T.n)]


def test_conjugates_above_dense_limit():
    T = enumerate_group(catalog("s7"))
    rng = random.Random(7)
    xs = rng.sample(range(T.n), 40)
    C = T.conjugates(xs)
    for _ in range(2000):
        i, g = rng.randrange(len(xs)), rng.randrange(T.n)
        assert C[i, g] == T.conj(xs[i], g)


def _first_discovery_words(T):
    """Words of a BFS over T.mul, each element reached first by (position, step)."""
    steps = [
        (ref, T.generators[ref - 1] if ref > 0 else T.inv_idx[T.generators[-ref - 1]])
        for ref in T.step_refs
    ]
    words = {0: []}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for ref, g in steps:
                y = T.mul(x, g)
                if y not in words:
                    words[y] = words[x] + [ref]
                    nxt.append(y)
        frontier = nxt
    return words


_INVERSE_CASES = {name: (lambda name=name: table_of(name)) for name in CORPUS_SMALL}
_INVERSE_CASES.update(
    {name: (lambda make=make: enumerate_group(make())) for name, make in _ODD_GENSETS.items()}
)
_INVERSE_CASES.update(
    {name: (lambda name=name: DENSE_CASES[name]()[0]) for name in ("sl2(3)/centre", "s4-subgroup", "s3xq8")}
)
_INVERSE_CASES["object path"] = lambda: enumerate_group(_dihedral_mod(67108879))


@pytest.mark.parametrize("name", list(_INVERSE_CASES))
def test_inverses_level_by_level(name):
    # equal to the walk up every parent chain, and each a two-sided inverse
    T = _INVERSE_CASES[name]()
    assert list(T.inv_idx) == parent_chain_inverses(T)
    assert all(T.mul(i, T.inv_idx[i]) == 0 == T.mul(T.inv_idx[i], i) for i in range(T.n))


@pytest.mark.parametrize("name", ["sl2(3)/centre", "s4-subgroup", "s3xq8"])
def test_derived_table_words(name):
    T = DENSE_CASES[name]()[0]
    words = _first_discovery_words(T)
    for x in range(T.n):
        w = T.word(x)
        assert w == words[x] and len(w) == T.word_length[x]
        assert all(type(r) is int for r in w)
        assert T.evaluate_word(w) == x


def test_lagrange_for_subgroup_tables():
    from solgrow.soluble import soluble_subgroups

    T = table_of("s4")
    for S in soluble_subgroups(T):
        assert T.n % S.order == 0
        sub = subgroup_table(T, S)
        assert sub.n == S.order
        assert sub.growth_counts()[-1] == S.order
    # the trivial subgroup has no generators, so its table has no steps
    trivial = subgroup_table(T, trivial_subgroup(T))
    assert trivial.n == 1 and trivial.step_refs == [] and list(trivial.word_length) == [0]
    assert list(trivial.inv_idx) == [0] and trivial.mul(0, 0) == 0


def test_mixed_variant_rejected():
    from solgrow.errors import MixedVariants

    with pytest.raises(MixedVariants):
        GenSet([Perm([1, 0]), MatFp(1, 2, [[1]])])


def test_word_ball_sizes_match_histogram():
    T = table_of("f2^3:c7")
    sizes = word_ball_sizes(T.gen_set, T.diameter())
    assert sizes == T.growth_counts()
