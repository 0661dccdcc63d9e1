"""Concrete group element variants with a shared multiply/inverse/encode contract.

Five variants are supported: permutations, matrices over a prime field,
integer matrices of determinant +-1, lamplighter elements (lamp set plus
head position), and finite-depth rooted-tree automorphisms given by
portraits. Canonical encodings are injective per variant, so encodings
double as hash keys for BFS deduplication.

The two matrix variants share one body (`_Matrix`: product, identity, rows,
each subclass fixing its ring in `_like`), one entry parser and one
Gauss-Jordan elimination (`_gauss_jordan`): the determinant alone is
checked at construction, and the full elimination gives the inverse: over
F_p, and over Q for integer matrices, whose inverse must come out integral
or raises InvariantViolated.

Permutations and F_p matrices also have a row codec (PermRows, MatFpRows,
next to their classes): the element's data as a fixed-width numpy row, a
batched product over many rows at once (a gather, or one float64 matrix
product), and row -> element. Integer matrices and lamplighter elements
have row codecs for counting Cayley balls only (MatZRows, LamplighterRows,
from `GenSet.ball_codec`), which give only rows and products; lamplighter
rows are as wide as their lamps need, so reaching further only appends words.

Composition convention: permutations and tree automorphisms act on the
left, (g*h)(x) = g(h(x)), matching matrix action on column vectors.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvariantViolated, MixedVariants, ParseError


def _is_prime(p: int) -> bool:
    return p >= 2 and all(map(p.__mod__, range(2, math.isqrt(p) + 1)))


class GroupElement:
    """Common interface; concrete variants implement mul/inverse/encode."""

    variant: str = ""

    __slots__ = ()

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        raise NotImplementedError

    def inverse(self) -> "GroupElement":
        raise NotImplementedError

    def encode(self) -> bytes:
        raise NotImplementedError

    def identity(self) -> "GroupElement":
        """Identity element of the same variant and degree."""
        raise NotImplementedError

    def row_codec(self) -> "RowCodec | None":
        """Fixed-width row form of this variant and degree, if it has one."""
        return None

    def ball_codec(self) -> "RowCodec | None":
        """Row form for counting Cayley balls of this variant, if any."""
        return self.row_codec()

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())


class RowCodec:
    """Elements of one variant and degree as rows.

    A row is an element's data as a 1-D array of `width` entries of
    `dtype`, which each codec instance sets: perm and matfp rows take the
    narrowest unsigned dtype that holds their entries. `products` forms
    x * s for every frontier row x and every step row s at once, x-major.
    For perm and matfp, distinct elements have distinct rows and `element`
    builds the element of a row. The matz and lamplighter codecs serve
    growth only. Rows have a fixed width, except lamplighter rows, which
    have no `width` and may lack trailing zero words.
    """

    dtype: np.dtype
    width: int

    def rows(self, elements: Sequence["GroupElement"]) -> np.ndarray:
        raise NotImplementedError

    def products(self, frontier: np.ndarray, steps: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def element(self, row: np.ndarray) -> "GroupElement":
        raise NotImplementedError


class RowElements(SequenceABC):
    """Read-only sequence of elements kept as codec rows, built on access.

    `rows` is the row array, or a function returning the n rows, called on
    the first read of `rows` and then dropped. `len` reads neither.
    """

    def __init__(self, codec: RowCodec, rows: np.ndarray | Callable, n: int | None = None):
        self.codec = codec
        self._rows = rows
        self._n = len(rows) if n is None else n

    @property
    def rows(self) -> np.ndarray:
        if callable(self._rows):
            self._rows = self._rows()
        return self._rows

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> "GroupElement":
        return self.codec.element(self.rows[operator.index(i)])

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        """Position of the first element equal to `value`, by one comparison
        of its row with every row, not an element object per position."""
        lo, hi, _ = slice(start, stop).indices(len(self))
        if len(self) and type(value) is type(self[0]) and value.identity() == self[0].identity():
            hits = np.flatnonzero((self.rows[lo:hi] == self.codec.rows([value])).all(axis=1))
            if len(hits):
                return lo + int(hits[0])
        raise ValueError(f"{value!r} is not in the sequence")


class Perm(GroupElement):
    """Permutation of {0..m-1}, stored as the image tuple."""

    variant = "perm"

    __slots__ = ("images", "_enc")

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ParseError(f"not a permutation of 0..{len(imgs)-1}: {imgs}")
        self.images = imgs
        self._enc: bytes | None = None

    @staticmethod
    def _of(images: tuple[int, ...]) -> "Perm":
        p = Perm.__new__(Perm)
        p.images, p._enc = images, None
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        a = self.images
        return Perm._of(tuple(a[x] for x in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm._of(tuple(inv))

    def identity(self) -> "Perm":
        return Perm._of(tuple(range(len(self.images))))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def encode(self) -> bytes:
        if self._enc is None:
            m = len(self.images)
            self._enc = b"P" + struct.pack(f"<H{m}H", m, *self.images)
        return self._enc

    def row_codec(self) -> "PermRows":
        return PermRows(len(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for i, image in enumerate(self.images):
            if i not in seen and image != i:
                cyc = [i]
                while self.images[cyc[-1]] != i:
                    cyc.append(self.images[cyc[-1]])
                seen.update(cyc)
                out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "Perm.id(%d)" % len(self.images)
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[cyc[i]] = cyc[(i + 1) % len(cyc)]
        return Perm(images)


class PermRows(RowCodec):
    """Permutations of one degree as rows of images, one byte each up to degree 256."""

    def __init__(self, degree: int):
        self.width = degree
        self.dtype = np.dtype("u1" if degree <= 256 else "<u2")

    def rows(self, perms: Sequence[Perm]) -> np.ndarray:
        return np.array([g.images for g in perms], dtype=self.dtype)

    def products(self, frontier: np.ndarray, steps: np.ndarray) -> np.ndarray:
        # (x * s).images = x.images[s.images], gathered for all x and s at
        # once; `take` gathers along a row several times faster than indexing
        return np.take(frontier, steps, axis=1).reshape(-1, frontier.shape[1])

    def element(self, row: np.ndarray) -> Perm:
        return Perm._of(tuple(row.tolist()))


def _flat_entries(n: int, entries: Sequence[Sequence[int]] | Sequence[int]) -> list[int]:
    """Row-major integer entries of an n x n matrix given flat or as rows."""
    if entries and isinstance(entries[0], (list, tuple)):
        entries = [x for row in entries for x in row]  # type: ignore[union-attr]
    flat = [int(x) for x in entries]  # type: ignore[arg-type]
    if len(flat) != n * n:
        raise ParseError(f"expected {n}x{n} entries")
    return flat


def _gauss_jordan(
    n: int, entries: Sequence, inv: Callable, reduce: Callable, inverse: bool = True
) -> tuple[object, list | None]:
    """Determinant and row-major inverse of row-major `entries` over a field.

    `reduce` gives a value's normal form, falsy for zero (x mod p over F_p,
    a Fraction over Q); `inv` inverts a nonzero normal form. A singular
    matrix gives (0, None). With `inverse` false only the determinant is
    found: no identity half is carried and only the rows below each pivot
    are cleared, and the inverse returned is None.
    """
    m = [
        [reduce(x) for x in entries[i * n : (i + 1) * n]]
        + ([reduce(int(i == j)) for j in range(n)] if inverse else [])
        for i in range(n)
    ]
    det = reduce(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = reduce(det * m[col][col])
        f = inv(m[col][col])
        m[col] = [reduce(x * f) for x in m[col]]
        for r in range(n) if inverse else range(col + 1, n):
            f = m[r][col]
            if r != col and f:
                m[r] = [reduce(x - f * y) for x, y in zip(m[r], m[col])]
    return det, [x for row in m for x in row[n:]] if inverse else None


class _Matrix(GroupElement):
    """n x n matrix with row-major `entries`; subclasses fix the ring."""

    __slots__ = ("n", "entries", "_enc")

    def _like(self, entries: Iterable[int]) -> "_Matrix":
        """A matrix of the same kind and size with these entries, unchecked."""
        raise NotImplementedError

    def __mul__(self, other: "_Matrix") -> "_Matrix":
        n = self.n
        a, b = self.entries, other.entries
        out = [0] * (n * n)
        for i in range(n):
            ai = i * n
            for k in range(n):
                aik = a[ai + k]
                if aik:
                    bk = k * n
                    for j in range(n):
                        out[ai + j] += aik * b[bk + j]
        return self._like(out)

    def identity(self) -> "_Matrix":
        n = self.n
        return self._like(int(i == j) for i in range(n) for j in range(n))

    def rows(self) -> list[tuple[int, ...]]:
        n = self.n
        return [self.entries[i * n : (i + 1) * n] for i in range(n)]


class MatFp(_Matrix):
    """Invertible n x n matrix over F_p, entries reduced mod p."""

    variant = "matfp"

    __slots__ = ("p",)

    def __init__(self, n: int, p: int, entries: Sequence[Sequence[int]] | Sequence[int]):
        if not _is_prime(p):
            raise ParseError(f"p = {p} is not prime")
        self.n = n
        self.p = p
        self.entries = tuple(x % p for x in _flat_entries(n, entries))
        self._enc: bytes | None = None
        if self._eliminate(inverse=False)[0] == 0:
            raise ParseError("matrix is singular over F_p")

    @staticmethod
    def _of(n: int, p: int, entries: tuple[int, ...]) -> "MatFp":
        m = MatFp.__new__(MatFp)
        m.n, m.p, m.entries, m._enc = n, p, entries, None
        return m

    def _like(self, entries: Iterable[int]) -> "MatFp":
        p = self.p
        return MatFp._of(self.n, p, tuple(x % p for x in entries))

    def _eliminate(self, inverse: bool = True) -> tuple[object, list | None]:
        p = self.p
        return _gauss_jordan(
            self.n, self.entries, lambda x: pow(x, p - 2, p), lambda x: x % p, inverse
        )

    def inverse(self) -> "MatFp":
        return self._like(self._eliminate()[1])  # type: ignore[arg-type]

    def encode(self) -> bytes:
        if self._enc is None:
            self._enc = b"F" + struct.pack(
                f"<BI{self.n * self.n}I", self.n, self.p, *self.entries
            )
        return self._enc

    def row_codec(self) -> "MatFpRows | None":
        # A product entry sums n terms of at most (p - 1)^2 before reduction,
        # which float64 holds exactly below 2^53.
        if self.n * (self.p - 1) ** 2 >= 1 << 53:
            return None
        return MatFpRows(self.n, self.p)

    def __repr__(self) -> str:
        return f"MatFp({self.n}, {self.p}, {self.rows()})"


_GEMM_ENTRIES = 1 << 15  # product entries formed at once by MatFpRows


class MatFpRows(RowCodec):
    """n x n matrices over F_p as rows of entries, row-major."""

    def __init__(self, n: int, p: int):
        self.width = n * n
        self.n = n
        self.p = p
        # the narrowest unsigned dtype that holds p - 1
        self.dtype = np.dtype("u1" if p <= 1 << 8 else "<u2" if p <= 1 << 16 else "<u4")

    def rows(self, mats: Sequence[MatFp]) -> np.ndarray:
        return np.array([g.entries for g in mats], dtype=self.dtype)

    def products(self, frontier: np.ndarray, steps: np.ndarray) -> np.ndarray:
        # A float64 GEMM: the frontier's matrix rows stacked, times the steps
        # side by side, so entry ((x, i), (s, j)) is (x * s)[i, j]. Exact
        # while n * (p - 1)^2 < 2^53 (`MatFp.row_codec`), and so is
        # y - floor(y / p) * p, much faster than np.fmod. The frontier goes
        # through in chunks of about _GEMM_ENTRIES products' entries, whose
        # float arrays stay in cache.
        n, k, p = self.n, len(steps), self.p
        s = steps.reshape(k, n, n).transpose(1, 0, 2).reshape(n, k * n).astype(np.float64)
        out = np.empty((len(frontier), k, n, n), self.dtype)
        per = max(1, _GEMM_ENTRIES // (k * n * n))
        for lo in range(0, len(frontier), per):
            x = frontier[lo : lo + per]
            y = x.reshape(-1, n).astype(np.float64) @ s
            q = y / p
            np.floor(q, out=q)
            q *= p
            y -= q
            out[lo : lo + per] = y.reshape(len(x), n, k, n).transpose(0, 2, 1, 3)
        return out.reshape(-1, n * n)

    def element(self, row: np.ndarray) -> MatFp:
        return MatFp._of(self.n, self.p, tuple(row.tolist()))


class MatZ(_Matrix):
    """Integer n x n matrix with determinant +-1 (exact arithmetic)."""

    variant = "matz"

    __slots__ = ()

    def __init__(self, n: int, entries: Sequence[Sequence[int]] | Sequence[int]):
        self.n = n
        self.entries = tuple(_flat_entries(n, entries))
        self._enc: bytes | None = None
        d = self._eliminate(inverse=False)[0]
        if d not in (1, -1):
            raise ParseError(f"determinant {d} is not +-1")

    def _like(self, entries: Iterable[int]) -> "MatZ":
        m = MatZ.__new__(MatZ)
        m.n, m.entries, m._enc = self.n, tuple(entries), None
        return m

    def _eliminate(self, inverse: bool = True) -> tuple[object, list | None]:
        return _gauss_jordan(self.n, self.entries, lambda x: 1 / x, Fraction, inverse)

    def inverse(self) -> "MatZ":
        # Over Q; integral whenever det = +-1, which the constructor checked.
        vals = self._eliminate()[1]
        if vals is None or any(v.denominator != 1 for v in vals):
            raise InvariantViolated(f"{self!r} has no inverse over Z")
        return self._like(v.numerator for v in vals)

    def encode(self) -> bytes:
        # Entries are unbounded, so the encoding is length-delimited text.
        if self._enc is None:
            self._enc = b"Z" + struct.pack("<B", self.n) + repr(self.entries).encode()
        return self._enc

    def ball_codec(self) -> "MatZRows":
        return MatZRows(self.n)

    def __repr__(self) -> str:
        return f"MatZ({self.n}, {self.rows()})"


def _max_abs(values: np.ndarray) -> int:
    return max(int(values.max()), -int(values.min()))


class MatZRows(RowCodec):
    """n x n integer matrices as int64 rows of entries, row-major.

    For growth only. `rows` and `products` raise OverflowError when an
    entry could pass int64.
    """

    dtype = np.dtype(np.int64)
    limit = 1 << 62

    def __init__(self, n: int):
        self.n = n
        self.width = n * n

    def rows(self, mats: Sequence[MatZ]) -> np.ndarray:
        return np.array([g.entries for g in mats], dtype=self.dtype)

    def products(self, frontier: np.ndarray, steps: np.ndarray) -> np.ndarray:
        # An entry of x @ s sums n terms, each at most max|x| * max|s|.
        if self.n * _max_abs(frontier) * _max_abs(steps) >= self.limit:
            raise OverflowError("integer matrix entries could pass int64")
        n = self.n
        x = frontier.reshape(-1, 1, n, n)
        return (x @ steps.reshape(1, -1, n, n)).reshape(-1, n * n)


class Lamplighter(GroupElement):
    """Element of the lamplighter group: finite set of lit lamps plus head."""

    variant = "lamplighter"

    __slots__ = ("lamps", "head", "_enc")

    def __init__(self, lamps: Iterable[int], head: int):
        self.lamps = frozenset(int(x) for x in lamps)
        self.head = int(head)
        self._enc: bytes | None = None

    @staticmethod
    def _of(lamps: frozenset[int], head: int) -> "Lamplighter":
        m = Lamplighter.__new__(Lamplighter)
        m.lamps, m.head, m._enc = lamps, head, None
        return m

    def __mul__(self, other: "Lamplighter") -> "Lamplighter":
        # (f1, k1)(f2, k2) = (f1 xor shift(f2, k1), k1 + k2)
        shifted = frozenset(x + self.head for x in other.lamps)
        return Lamplighter._of(self.lamps ^ shifted, self.head + other.head)

    def inverse(self) -> "Lamplighter":
        return Lamplighter._of(frozenset(x - self.head for x in self.lamps), -self.head)

    def identity(self) -> "Lamplighter":
        return Lamplighter._of(frozenset(), 0)

    def encode(self) -> bytes:
        if self._enc is None:
            self._enc = b"L" + repr((tuple(sorted(self.lamps)), self.head)).encode()
        return self._enc

    def ball_codec(self) -> "LamplighterRows":
        return LamplighterRows()

    def __repr__(self) -> str:
        return f"Lamplighter({sorted(self.lamps)}, {self.head})"


def _zigzag(lamp):
    """The mask bit of a lamp (an int or an int64 array): 2l, or -2l - 1 if l < 0."""
    return (lamp << 1) ^ (lamp >> 63)


class LamplighterRows(RowCodec):
    """Lamplighter elements as int64 rows: the head, then a lamp bitmask.

    Lamp l is bit b = 2l of the mask when l >= 0 and b = -2l - 1 when l < 0
    (zigzag order), bit b % 64 of word b // 64 after the head. Rows take as
    many words as their lamps need, and the words a row lacks are zero: a
    row with zero words appended is the same element, so lamps reaching
    further out only ever append words. For growth only.
    """

    dtype = np.dtype(np.int64)

    def rows(self, elements: Sequence[Lamplighter]) -> np.ndarray:
        bits = [[_zigzag(x) for x in g.lamps] for g in elements]
        words = 1 + max((b >> 6 for lamps in bits for b in lamps), default=-1)
        out = np.zeros((len(elements), 1 + words), self.dtype)
        masks = out[:, 1:].view(np.uint64)
        for i, (g, lamps) in enumerate(zip(elements, bits)):
            out[i, 0] = g.head
            for b in lamps:
                masks[i, b >> 6] |= np.uint64(1 << (b & 63))
        return out

    def products(self, frontier: np.ndarray, steps: np.ndarray) -> np.ndarray:
        # (L, k) * (L', k') = (L xor (L' + k), k + k'): each lamp l of a step
        # flips the bit of lamp head + l and the step moves the head. The
        # rows widen to hold the furthest bit flipped.
        bits = np.unpackbits(steps[:, 1:].astype("<u8").view(np.uint8), axis=1, bitorder="little")
        lamps = [(j, (b >> 1) ^ -(b & 1)) for j, row in enumerate(bits) for b in np.flatnonzero(row).tolist()]
        flips = [(j, _zigzag(frontier[:, 0] + lamp)) for j, lamp in lamps]
        width = max([frontier.shape[1], *(2 + int(b.max()) // 64 for _j, b in flips)])
        if width > frontier.shape[1]:
            frontier = np.pad(frontier, ((0, 0), (0, width - frontier.shape[1])))
        out = np.repeat(frontier[:, None, :], len(steps), axis=1)
        out[:, :, 0] += steps[:, 0]
        masks = out[:, :, 1:].view(np.uint64)
        at = np.arange(len(frontier))
        for j, b in flips:
            masks[at, j, b >> 6] ^= np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
        return out.reshape(-1, width)


def _node_paths(arity: int, depth: int) -> list[tuple[int, ...]]:
    """Internal nodes (levels 0..depth-1) in depth-first order."""
    out: list[tuple[int, ...]] = []

    def rec(path: tuple[int, ...]):
        out.append(path)
        if len(path) + 1 < depth:
            for c in range(arity):
                rec(path + (c,))

    if depth >= 1:
        rec(())
    return out


class TreeAuto(GroupElement):
    """Automorphism of the depth-d complete m-ary rooted tree, as a portrait.

    The portrait assigns to each internal node v a permutation label g_v of
    the child indices; the action on a leaf path (x1..xd) is
    (g_()(x1), g_(x1)(x2), ...). Identity labels are dropped from storage.
    """

    variant = "treeauto"

    __slots__ = ("depth", "arity", "portrait", "_enc")

    def __init__(self, depth: int, arity: int, portrait: dict):
        if depth < 1 or arity < 2:
            raise ParseError("treeauto needs depth >= 1 and arity >= 2")
        ident = tuple(range(arity))
        norm: dict[tuple[int, ...], tuple[int, ...]] = {}
        for path, label in portrait.items():
            path = tuple(int(x) for x in path)
            if len(path) >= depth or any(not (0 <= x < arity) for x in path):
                raise ParseError(f"bad portrait node {path}")
            lab = tuple(int(x) for x in label)
            if sorted(lab) != list(range(arity)):
                raise ParseError(f"portrait label at {path} is not a permutation")
            if lab != ident:
                norm[path] = lab
        self.depth = depth
        self.arity = arity
        self.portrait = norm
        self._enc: bytes | None = None

    @staticmethod
    def _of(depth: int, arity: int, portrait: dict) -> "TreeAuto":
        m = TreeAuto.__new__(TreeAuto)
        m.depth, m.arity, m.portrait, m._enc = depth, arity, portrait, None
        return m

    def label(self, path: tuple[int, ...]) -> tuple[int, ...]:
        return self.portrait.get(path, tuple(range(self.arity)))

    def apply_path(self, path: Sequence[int]) -> tuple[int, ...]:
        """Image of a vertex path (length <= depth)."""
        out = []
        prefix: tuple[int, ...] = ()
        for x in path:
            out.append(self.label(prefix)[x])
            prefix = prefix + (x,)
        return tuple(out)

    def __mul__(self, other: "TreeAuto") -> "TreeAuto":
        # (g*h) section at v: g_{h(v)} o h_v. Nontrivial only on h's support
        # or on h-preimages of g's support, so the walk stays sparse.
        ident = tuple(range(self.arity))
        port: dict[tuple[int, ...], tuple[int, ...]] = {}
        cand = set(other.portrait)
        for path in self.portrait:
            cand.add(other._preimage_path(path))
        for path in cand:
            gl = self.label(other.apply_path(path))
            hl = other.label(path)
            lab = tuple(gl[hl[x]] for x in range(self.arity))
            if lab != ident:
                port[path] = lab
        return TreeAuto._of(self.depth, self.arity, port)

    def _preimage_path(self, path: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        prefix: tuple[int, ...] = ()
        for x in path:
            lab = self.label(prefix)
            pre = lab.index(x)
            out.append(pre)
            prefix = prefix + (pre,)
        return tuple(out)

    def inverse(self) -> "TreeAuto":
        # (g^-1)_v = (g_{g^-1(v)})^-1, so the inverse's label lives at g(v);
        # stored labels are not the identity, so neither are their inverses.
        port: dict[tuple[int, ...], tuple[int, ...]] = {}
        for path, lab in self.portrait.items():
            inv = [0] * self.arity
            for i, x in enumerate(lab):
                inv[x] = i
            port[self.apply_path(path)] = tuple(inv)
        return TreeAuto._of(self.depth, self.arity, port)

    def identity(self) -> "TreeAuto":
        return TreeAuto._of(self.depth, self.arity, {})

    def to_leaf_perm(self) -> Perm:
        """Action on the m^d leaves, leaf index = big-endian digit string."""
        m, d = self.arity, self.depth
        n = m**d
        images = []
        for idx in range(n):
            digits = []
            x = idx
            for _ in range(d):
                digits.append(x % m)
                x //= m
            digits.reverse()
            img = self.apply_path(digits)
            val = 0
            for t in img:
                val = val * m + t
            images.append(val)
        return Perm(images)

    def encode(self) -> bytes:
        if self._enc is None:
            parts = [b"T", struct.pack("<BB", self.depth, self.arity)]
            for path in _node_paths(self.arity, self.depth):
                parts.append(bytes(self.label(path)))
            self._enc = b"".join(parts)
        return self._enc

    def __repr__(self) -> str:
        return f"TreeAuto(depth={self.depth}, arity={self.arity}, {dict(sorted(self.portrait.items()))})"


class GenSet:
    """Ordered generating set of one variant; inverses adjoined for BFS.

    With symmetric=True (default) word lengths are measured over X u X^-1.
    An explicitly inverse-closed X may set symmetric=False.
    """

    def __init__(self, elements: Sequence[GroupElement], symmetric: bool = True,
                 allow_identity: bool = False):
        elems = list(elements)
        if not elems:
            raise ParseError("generating set is empty")
        # the identity's encoding names the variant and its degree
        key = elems[0].identity().encode()
        if any(g.identity().encode() != key for g in elems):
            raise MixedVariants("mixed variants/degrees in generating set")
        if not allow_identity and any(g.encode() == key for g in elems):
            raise ParseError("identity element in generating set")
        self.elements = elems
        self.symmetric = symmetric

    @property
    def variant(self) -> str:
        return self.elements[0].variant

    def identity(self) -> GroupElement:
        return self.elements[0].identity()

    def row_codec(self) -> RowCodec | None:
        return self.elements[0].row_codec()

    def ball_codec(self) -> RowCodec | None:
        """Row form for counting Cayley balls over `bfs_steps`, if any."""
        return self.elements[0].ball_codec()

    def bfs_steps(self) -> list[tuple[GroupElement, int]]:
        """Multiplication steps in deterministic order: X, then X^-1.

        Each step is (element, signed generator reference): +k is
        generator k-1, -k its inverse.
        """
        steps = [(g, i + 1) for i, g in enumerate(self.elements)]
        if self.symmetric:
            steps += [(g.inverse(), -(i + 1)) for i, g in enumerate(self.elements)]
        return steps

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

