"""Constructions of generating sets: wreath products, affine groups, powers.

Permutation wreaths act imprimitively on a*b points laid out in b blocks of
size a (point j*a + i is position i of block j); matrix wreaths are block
monomial matrices. Affine semidirect products act on the p^n vectors of
F_p^n (vector index = sum v_i p^i).

The table of a permutation wreath is also derived from its factors' tables
(`wreath_table`), with no element BFS: its product is fixed by theirs. The
result is the table `enumerate_group` finds for the same wreath, field by
field, which the tests check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bounds import is_transitive_on
from .elements import GenSet, MatFp, Perm, RowElements
from .errors import CapExceeded, NotTransitive, ParseError
from .fields import _idx_of, _vec_of, vector_actions
from .table import DEFAULT_CAP, FiniteGroupTable, _cayley_bfs


def sym_gens(n: int) -> GenSet:
    """Standard generators of Sym(n) on n points."""
    if n < 2:
        raise ParseError("Sym(n) needs n >= 2")
    gens = [Perm.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Perm(list(range(1, n)) + [0]))
    return GenSet(gens)


def cyclic_gens(n: int) -> GenSet:
    if n < 2:
        raise ParseError("Cyclic(n) needs n >= 2")
    return GenSet([Perm(list(range(1, n)) + [0])])


def is_transitive(T: FiniteGroupTable) -> bool:
    """Transitivity of a permutation-element table on its full point set."""
    if T.elements is None or not isinstance(T.elements[0], Perm):
        raise ParseError("table is not permutation-backed")
    return is_transitive_on([T.elements[g] for g in T.generators], T.elements[0].degree)


def wreath_product(A: FiniteGroupTable, B: FiniteGroupTable) -> GenSet:
    """Imprimitive permutation wreath A wr B on a*b points.

    A and B must be permutation-backed tables; B must be transitive. The
    generators are A's generators acting in block 0 followed by B's
    generators permuting the blocks.
    """
    if A.elements is None or not isinstance(A.elements[0], Perm):
        raise ParseError("A is not permutation-backed")
    if B.elements is None or not isinstance(B.elements[0], Perm):
        raise ParseError("B is not permutation-backed")
    if not is_transitive(B):
        raise NotTransitive("top group is not transitive")
    a = A.elements[0].degree
    b = B.elements[0].degree
    n = a * b
    gens = []
    for gi in A.generators:
        g = A.elements[gi]
        images = list(range(n))
        for i in range(a):
            images[i] = g(i)
        gens.append(Perm(images))
    for hi in B.generators:
        h = B.elements[hi]
        images = [h(j) * a + i for j in range(b) for i in range(a)]
        gens.append(Perm(images))
    return GenSet(gens)


def wreath_table(
    A: FiniteGroupTable, B: FiniteGroupTable, cap: int = DEFAULT_CAP
) -> FiniteGroupTable:
    """The table `enumerate_group(wreath_product(A, B), cap)` returns, built
    from the tables of A and B with no row keyed, sorted or compared.

    The element (beta_0..beta_{b-1}; pi), whose row maps point j*a + i to
    pi(j)*a + beta_j(i), is labelled pi*|A|^b + sum beta_j*|A|^j over the
    indices of A and B. On labels, a base step maps beta_0 by A's right
    action; a top step h maps pi by B's and moves digit h(j) to digit j.
    One `_cayley_bfs` over those step actions finds the elements in the
    order the element BFS finds them (both take each new element's first
    x-major product); the actions and BFS are then relabelled into that
    order one array at a time, and the rows written one block of points at
    a time. Raises CapExceeded, with no complete ball, before building
    anything when |A|^b * |B| > cap.
    """
    X = wreath_product(A, B)
    a, b = A.elements[0].degree, B.elements[0].degree
    nA, M = A.n, A.n**b  # M labels of the base, one per (beta_0..beta_{b-1})
    n = M * B.n
    if n > cap:
        raise CapExceeded(f"group exceeds cap of {cap} elements")
    r = len(A.generators)
    steps = X.bfs_steps()
    actions = np.empty((len(steps), n), np.int32)
    digit = np.arange(nA, dtype=np.int32)
    for action, (g, ref) in zip(actions, steps):
        m = abs(ref) - 1  # the generator that this step is or inverts
        T, gen = (A, A.generators[m]) if m < r else (B, B.generators[m - r])
        x = gen if ref > 0 else T.inv_idx[gen]
        if m < r:  # beta_0 -> beta_0 * x
            offsets = np.arange(0, n, nA, dtype=np.int32)
            np.add(offsets[:, None], A.right_action(x), out=action.reshape(-1, nA))
            continue
        # pi -> pi * x, and digit h(j) moves to digit j for the block map h
        # of x, read off the step's row. In C order, axis b-1-j of the base
        # labels holds digit j.
        moved = np.zeros((nA,) * b, np.int32)
        for j, image in enumerate(g.images[::a]):
            shape = (1,) * (b - 1 - image // a) + (nA,) + (1,) * (image // a)
            moved += (digit * nA**j).reshape(shape)
        np.add((B.right_action(x) * M)[:, None], moved.reshape(1, M), out=action.reshape(-1, M))
    wl, parent, step, levels = _cayley_bfs(actions, n)
    bounds = np.cumsum([0] + [len(level) for level in levels]).tolist()
    order = np.concatenate(levels)  # the label of each index
    del levels
    # `bounds` holds the word lengths now: their array becomes each label's index
    index = wl
    index[order] = np.arange(n, dtype=np.int32)
    spare = np.empty(n, np.int32)
    for array in (*actions, parent):  # labels at labels -> indices at indices
        np.take(array, order, out=spare)
        np.take(index, spare, out=array)
    np.take(step, order, out=spare)
    step, spare = spare, step
    del index, spare
    # Block j of the row of (beta; pi) is the string pi(j)*a + beta_j(0..a-1):
    # one of b * |A| strings, each copied whole as one void item.
    codec = X.row_codec()
    strings = np.array(
        [[p * a + i for i in g.images] for p in range(b) for g in A.elements], codec.dtype
    )
    item = f"V{strings.itemsize * a}"
    strings = strings.view(item).ravel()
    rows = np.empty((n, a * b), codec.dtype)
    blocks = rows.view(item)
    points = np.array([g.images for g in B.elements], np.int32) * nA
    pi, label = np.divmod(order, M)
    del order
    for j in range(b):
        label, beta = np.divmod(label, nA)
        beta += points[pi, j]
        np.take(strings, beta, out=blocks[:, j])
    del pi, label, beta
    wl = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
    return FiniteGroupTable(
        actions[: len(X), 0].tolist(),
        [ref for _s, ref in steps],
        actions,
        elements=RowElements(codec, rows),
        gen_set=X,
        bfs=(wl, parent, step, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]),
    )


def matrix_wreath(L: Sequence[MatFp], k: int) -> GenSet:
    """Block-monomial wreath of a matrix group by Sym(k) in GL_{dk}(p)."""
    if not L:
        raise ParseError("empty base generator list")
    d, p = L[0].n, L[0].p
    n = d * k
    gens: list[MatFp] = []
    for M in L:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = 1
        for i in range(d):
            for j in range(d):
                entries[i][j] = M.entries[i * d + j]
        gens.append(MatFp(n, p, entries))
    top = [Perm.from_cycles(k, [(0, 1)])]
    if k > 2:
        top.append(Perm(list(range(1, k)) + [0]))
    if k >= 2:
        for sigma in top:
            entries = [[0] * n for _ in range(n)]
            for j in range(k):
                for i in range(d):
                    entries[sigma(j) * d + i][j * d + i] = 1
            gens.append(MatFp(n, p, entries))
    return GenSet(gens)


def affine_semidirect(n: int, p: int, H: Sequence[MatFp]) -> GenSet:
    """Permutation generators of F_p^n x| <H> acting on p^n vectors.

    Generators are the translations by the standard basis vectors followed
    by the linear parts. H may be empty (elementary abelian group).
    """
    if any(M.n != n or M.p != p for M in H):
        raise ParseError("matrix degree/field mismatch in affine construction")
    vectors = [_vec_of(i, n, p) for i in range(p**n)]
    gens: list[Perm] = []
    for axis in range(n):
        images = []
        for v in vectors:
            w = list(v)
            w[axis] = (w[axis] + 1) % p
            images.append(_idx_of(w, p))
        gens.append(Perm(images))
    gens.extend(Perm(images) for images in vector_actions(H, n, p))
    return GenSet(gens)


def matrix_to_perm_gens(gens: Sequence[MatFp]) -> GenSet:
    """Action of a matrix group on the nonzero vectors of F_p^n.

    Faithful whenever no nontrivial element acts as the identity scalar;
    callers should only use this for groups without nontrivial scalars
    acting trivially (any group with -1 acting, or p = 2, is safe).
    """
    if not gens:
        raise ParseError("empty generator list")
    n, p = gens[0].n, gens[0].p
    return GenSet([Perm([x - 1 for x in images[1:]]) for images in vector_actions(gens, n, p)])
