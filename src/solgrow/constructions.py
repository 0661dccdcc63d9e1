"""Constructions of generating sets: wreath products, affine groups, powers.

Permutation wreaths act imprimitively on a*b points laid out in b blocks of
size a (point j*a + i is position i of block j); matrix wreaths are block
monomial matrices. Affine semidirect products act on the p^n vectors of
F_p^n (vector index = sum v_i p^i).
"""

from __future__ import annotations

from typing import Sequence

from .bounds import is_transitive_on
from .elements import GenSet, MatFp, Perm
from .errors import NotTransitive, ParseError
from .fields import _idx_of, _vec_of, vector_actions
from .table import FiniteGroupTable


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
