"""Element variant axioms: multiplication, inverses, canonical encodings."""

from __future__ import annotations

import random

import numpy as np
import pytest

from solgrow.elements import GenSet, Lamplighter, MatFp, MatZ, Perm, TreeAuto
from solgrow.errors import InvariantViolated, MixedVariants, ParseError
from solgrow.rowbfs import _Keys


def _samples():
    rng = random.Random(20240807)
    out = {"perm": [], "matfp": [], "matz": [], "lamplighter": [], "treeauto": []}
    for _ in range(12):
        images = list(range(5))
        rng.shuffle(images)
        out["perm"].append(Perm(images))
    gens_fp = [MatFp(2, 3, [[0, 2], [1, 0]]), MatFp(2, 3, [[1, 1], [0, 1]])]
    acc = gens_fp[0].identity()
    for _ in range(12):
        acc = acc * gens_fp[rng.randrange(2)]
        out["matfp"].append(acc)
    gens_z = [MatZ(2, [[1, 2], [0, 1]]), MatZ(2, [[1, 0], [2, 1]])]
    accz = gens_z[0].identity()
    for _ in range(10):
        accz = accz * gens_z[rng.randrange(2)]
        out["matz"].append(accz)
    for _ in range(12):
        lamps = [rng.randrange(-3, 4) for _ in range(rng.randrange(4))]
        out["lamplighter"].append(Lamplighter(lamps, rng.randrange(-3, 4)))
    labels = [(1, 0, 2), (2, 0, 1), (0, 1, 2)]
    for _ in range(12):
        port = {}
        for path in [(), (0,), (1,), (2,)]:
            port[path] = labels[rng.randrange(3)]
        out["treeauto"].append(TreeAuto(2, 3, port))
    return out


@pytest.mark.parametrize("variant", ["perm", "matfp", "matz", "lamplighter", "treeauto"])
def test_group_axioms(variant):
    xs = _samples()[variant]
    e = xs[0].identity()
    for g in xs:
        assert g * e == g and e * g == g
        assert g * g.inverse() == e and g.inverse() * g == e
    for g in xs:
        for h in xs:
            assert (g * h).inverse() == h.inverse() * g.inverse()
    for g in xs[:5]:
        for h in xs[:5]:
            for k in xs[:5]:
                assert (g * h) * k == g * (h * k)


@pytest.mark.parametrize("variant", ["perm", "matfp", "matz", "lamplighter", "treeauto"])
def test_encoding_injective(variant):
    xs = _samples()[variant]
    by_enc = {}
    for g in xs:
        prev = by_enc.setdefault(g.encode(), g)
        assert prev == g
    # distinct elements get distinct encodings
    for g in xs:
        for h in xs:
            if g.encode() == h.encode():
                assert g == h


def test_perm_validation():
    with pytest.raises(ParseError):
        Perm([0, 0, 1])
    assert Perm([1, 0])(0) == 1
    assert Perm.from_cycles(4, [(0, 1), (2, 3)]).images == (1, 0, 3, 2)


def test_matfp_validation():
    with pytest.raises(ParseError):
        MatFp(2, 4, [[1, 0], [0, 1]])  # p not prime
    with pytest.raises(ParseError):
        MatFp(2, 3, [[1, 1], [1, 1]])  # singular
    m = MatFp(2, 3, [[4, 1], [-1, 0]])
    assert m.entries == (1, 1, 2, 0)  # reduced mod 3


def test_matz_validation():
    with pytest.raises(ParseError):
        MatZ(2, [[2, 0], [0, 1]])  # det 2
    m = MatZ(2, [[1, 5], [0, 1]])
    assert m.inverse().rows() == [(1, -5), (0, 1)]


def test_matz_inverse_that_is_not_integral_raises():
    # a determinant-2 matrix that bypassed the constructor: its inverse over Q
    # has a half, which must not be truncated to an integer
    g = MatZ(2, [[1, 0], [0, 1]])._like([2, 0, 0, 1])
    with pytest.raises(InvariantViolated):
        g.inverse()


def test_lamplighter_relations():
    t = Lamplighter([], 1)
    a = Lamplighter([0], 0)
    assert a * a == a.identity()
    # t a t^-1 toggles the lamp at position 1
    conj = t * a * t.inverse()
    assert conj == Lamplighter([1], 0)
    # commuting toggles at distinct positions
    assert conj * a == a * conj


def test_treeauto_leaf_action_is_homomorphism():
    xs = _samples()["treeauto"]
    for g in xs[:6]:
        for h in xs[:6]:
            assert (g * h).to_leaf_perm() == g.to_leaf_perm() * h.to_leaf_perm()
        assert g.inverse().to_leaf_perm() == g.to_leaf_perm().inverse()


def test_treeauto_portrait_validation():
    with pytest.raises(ParseError):
        TreeAuto(2, 3, {(0, 0): (1, 0, 2)})  # node at leaf level
    with pytest.raises(ParseError):
        TreeAuto(1, 3, {(): (0, 0, 1)})  # not a permutation


def test_genset_rules():
    with pytest.raises(ParseError):
        GenSet([])
    with pytest.raises(ParseError):
        GenSet([Perm([0, 1])])  # identity generator
    with pytest.raises(MixedVariants):
        GenSet([Perm([1, 0]), Perm([1, 2, 0])])  # mixed degrees
    with pytest.raises(MixedVariants):
        GenSet([Perm([1, 0]), MatFp(2, 3, [[0, 2], [1, 0]])])
    gs = GenSet([Perm([1, 0, 2]), Perm([1, 2, 0])])
    steps = gs.bfs_steps()
    assert [ref for _, ref in steps] == [1, 2, -1, -2]


def _same_width(*arrays):
    """The row arrays with zero columns appended up to the widest."""
    width = max(a.shape[1] for a in arrays)
    return [np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in arrays]


def test_ball_codecs_match_objects():
    # rows and products (x-major) against the element objects; lamplighter
    # rows may lack trailing zero words, so both sides are made one width
    cases = [
        [MatZ(2, [[1, 2], [0, 1]]), MatZ(2, [[1, -2], [0, 1]]), MatZ(2, [[-7, 3], [12, -5]])],
        [MatZ(1, [[-1]]), MatZ(1, [[1]])],
        [Lamplighter([], 1), Lamplighter([], -1), Lamplighter([0], 0), Lamplighter([-3, 2], 2)],
        [Lamplighter([], 40), Lamplighter([-70, 64], 3), Lamplighter([0], 0)],
    ]
    for elems in cases:
        steps = elems + [g.inverse() for g in elems]
        codec = GenSet(elems, allow_identity=True).ball_codec()
        frontier = [a * b for a in steps for b in steps]
        got = codec.products(codec.rows(frontier), codec.rows(steps))
        got, want = _same_width(got, codec.rows([x * s for x in frontier for s in steps]))
        assert (got == want).all()


def _lamplighter_of(row):
    """The lamps and head of a lamplighter codec row, read back by hand."""
    bits = np.unpackbits(row[1:].astype("<u8").view(np.uint8), bitorder="little")
    return {b // 2 if b % 2 == 0 else -(b + 1) // 2 for b in np.flatnonzero(bits).tolist()}, int(row[0])


def test_lamplighter_rows_widen_by_appending_words():
    gens = GenSet([Lamplighter([-3, 2], 2), Lamplighter([0], 0)])
    codec = gens.ball_codec()
    steps = codec.rows([s for s, _ref in gens.bfs_steps()])
    rng = random.Random(3)
    elems = [
        Lamplighter(rng.sample(range(-5, 6), rng.randrange(4)), rng.randrange(-99, 100))
        for _ in range(200)
    ]
    rows = codec.rows(elems)
    assert rows.shape[1] == 1 + 1  # lamps -5..5 are bits 0..10 of one word
    padded = np.pad(rows, ((0, 0), (0, 2)))
    # a row with zero words appended is the same element: the same key,
    # so the same place in a sorted sphere
    keys = _Keys(rows.dtype, padded.min(axis=0), padded.max(axis=0))
    assert (keys.of(rows) == keys.of(padded)).all()
    assert (np.argsort(keys.of(rows), kind="stable") == np.lexsort(padded.T[::-1])).all()
    # and the same products; heads of up to +-99 light lamps up to -104, bit 207
    narrow, wide = codec.products(rows, steps), codec.products(padded, steps)
    assert narrow.shape[1] == 1 + 4 and wide.shape[1] == 1 + 4
    assert (narrow == wide).all()
    # lamps beyond +-64 of both signs round-trip, through rows and products
    far = [Lamplighter([-65, 64, -200], 7), Lamplighter([63, -64], -130), Lamplighter([], 0)]
    for g in far:
        assert _lamplighter_of(codec.rows([g])[0]) == (g.lamps, g.head)
    assert codec.rows(far[2:]).shape[1] == 1 and codec.rows(far[1:2]).shape[1] == 1 + 2
    got = codec.products(codec.rows(far), codec.rows(far))
    assert [_lamplighter_of(row) for row in got] == [((g * s).lamps, (g * s).head) for g in far for s in far]
