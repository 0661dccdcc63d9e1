"""Constructions of generating sets: wreath products, affine groups, powers.

Permutation wreaths act imprimitively on a*b points laid out in b blocks of
size a (point j*a + i is position i of block j); matrix wreaths are block
monomial matrices. Affine semidirect products act on the p^n vectors of
F_p^n (vector index = sum v_i p^i).

Two tables are derived rather than enumerated, with no element BFS: that
of a permutation wreath from its factors' tables (`wreath_table`), and that
of a semilinear group GammaL(1, q) from exponent labels
(`semilinear_table`). Both label the elements, act on the labels by the
BFS steps and go through one builder, `_label_table`, whose table writes
its element rows on first read. Each result is the table `enumerate_group`
finds for the same group, field by field, which the tests check.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

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


def _label_table(
    X: GenSet, n: int, cap: int, act: Callable, write_rows: Callable
) -> FiniteGroupTable:
    """The table `enumerate_group(X, cap)` returns, for a group of order n
    whose elements are labelled 0..n-1 (0 the identity), with no element BFS.

    `act(action, g, ref)` writes into the int32 array `action` the label of
    x * g for each label x, for each BFS step (g, ref) of X. One
    `_cayley_bfs` over those step actions finds the elements in the order
    the element BFS finds them (both take each new element's first x-major
    product); the actions and BFS are then relabelled into that order one
    array at a time. `write_rows(order)` returns the codec rows of the
    elements labelled `order`, in that order: it runs on the first read of
    the table's rows, and the labels are kept until then. Raises
    CapExceeded, with no complete ball, before allocating anything when
    n > cap.
    """
    if n > cap:
        raise CapExceeded(f"group exceeds cap of {cap} elements")
    steps = X.bfs_steps()
    actions = np.empty((len(steps), n), np.int32)
    for action, (g, ref) in zip(actions, steps):
        act(action, g, ref)
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
    wl = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
    return FiniteGroupTable(
        actions[: len(X), 0].tolist(),
        [ref for _s, ref in steps],
        actions,
        elements=RowElements(X.row_codec(), partial(write_rows, order), n),
        gen_set=X,
        bfs=(wl, parent, step, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]),
    )


def wreath_table(
    A: FiniteGroupTable, B: FiniteGroupTable, cap: int = DEFAULT_CAP
) -> FiniteGroupTable:
    """The table `enumerate_group(wreath_product(A, B), cap)` returns, built
    from the tables of A and B by `_label_table`, with no row keyed, sorted
    or compared.

    The element (beta_0..beta_{b-1}; pi), whose row maps point j*a + i to
    pi(j)*a + beta_j(i), is labelled pi*|A|^b + sum beta_j*|A|^j over the
    indices of A and B. On labels, a base step maps beta_0 by A's right
    action; a top step h maps pi by B's and moves digit h(j) to digit j.
    The rows are written one block of points at a time. Raises CapExceeded
    when |A|^b * |B| > cap.
    """
    X = wreath_product(A, B)
    a, b = A.elements[0].degree, B.elements[0].degree
    nA, M = A.n, A.n**b  # M labels of the base, one per (beta_0..beta_{b-1})
    n = M * B.n
    r = len(A.generators)
    digit = np.arange(nA, dtype=np.int32)

    def act(action: np.ndarray, g: Perm, ref: int) -> None:
        m = abs(ref) - 1  # the generator that this step is or inverts
        T, gen = (A, A.generators[m]) if m < r else (B, B.generators[m - r])
        x = gen if ref > 0 else T.inv_idx[gen]
        if m < r:  # beta_0 -> beta_0 * x
            offsets = np.arange(0, n, nA, dtype=np.int32)
            np.add(offsets[:, None], A.right_action(x), out=action.reshape(-1, nA))
            return
        # pi -> pi * x, and digit h(j) moves to digit j for the block map h
        # of x, read off the step's row. In C order, axis b-1-j of the base
        # labels holds digit j.
        moved = np.zeros((nA,) * b, np.int32)
        for j, image in enumerate(g.images[::a]):
            shape = (1,) * (b - 1 - image // a) + (nA,) + (1,) * (image // a)
            moved += (digit * nA**j).reshape(shape)
        np.add((B.right_action(x) * M)[:, None], moved.reshape(1, M), out=action.reshape(-1, M))

    def write_rows(order: np.ndarray) -> np.ndarray:
        # Block j of the row of (beta; pi) is the string pi(j)*a + beta_j(0..a-1):
        # one of b * |A| strings, each copied whole as one void item.
        dtype = X.row_codec().dtype
        strings = np.array(
            [[p * a + i for i in g.images] for p in range(b) for g in A.elements], dtype
        )
        item = f"V{strings.itemsize * a}"
        strings = strings.view(item).ravel()
        rows = np.empty((n, a * b), dtype)
        blocks = rows.view(item)
        points = np.array([g.images for g in B.elements], np.int32) * nA
        pi, label = np.divmod(order, M)
        for j in range(b):
            label, beta = np.divmod(label, nA)
            beta += points[pi, j]
            np.take(strings, beta, out=blocks[:, j])
        return rows

    return _label_table(X, n, cap, act, write_rows)


def semilinear_table(q: int, cap: int = DEFAULT_CAP) -> FiniteGroupTable:
    """The table `enumerate_group(catalog(f"gammal1({q})"), cap)` returns,
    built by `_label_table` from exponent labels, with no element BFS.

    With alpha the field's primitive element, phi the Frobenius map,
    q = p^k and m = q - 1, the element alpha^e phi^i is labelled e*k + i.
    Since phi^i alpha = alpha^(p^i) phi^i, right multiplication by alpha
    maps e to e + p^i mod m and by phi maps i to i + 1 mod k. Column c of
    the element's matrix is the coefficient vector of alpha^(e + c*p^i),
    the image of the basis vector alpha^c. Raises CapExceeded when
    (q - 1) * k > cap.
    """
    from .catalog import catalog

    X = catalog(f"gammal1({q})")
    alpha = X.elements[0]
    p, k = alpha.p, alpha.n
    m, n = q - 1, (q - 1) * k

    def act(action: np.ndarray, _g: MatFp, ref: int) -> None:
        e, i = np.divmod(np.arange(n, dtype=np.int32), k)
        sign = 1 if ref > 0 else -1
        action[:] = (e + sign * p**i) % m * k + i if abs(ref) == 1 else e * k + (i + sign) % k

    def write_rows(order: np.ndarray) -> np.ndarray:
        # powers[j] is the coefficient vector of alpha^j: alpha's matrix to the j, column 0
        matrix, powers = np.array(alpha.rows()), [np.eye(k, dtype=np.int64)[0]]
        for _ in range(m - 1):
            powers.append(matrix @ powers[-1] % p)
        e, i = np.divmod(order, k)
        exponents = (e[:, None] + np.arange(k) * p ** i[:, None]) % m  # (element, column)
        rows = np.array(powers, X.row_codec().dtype)[exponents].transpose(0, 2, 1)
        return rows.reshape(n, k * k)

    return _label_table(X, n, cap, act, write_rows)


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
