"""Tiny finite fields F_{p^k} for building affine and semilinear groups.

Elements are coefficient tuples in the polynomial basis 1, x, .., x^{k-1}
modulo a deterministic primitive modulus (lexicographically first monic
irreducible polynomial whose root x generates the multiplicative group).
Desk scale only: p^k up to a few thousand.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .elements import MatFp
from .errors import ParseError


def _vec_of(idx: int, n: int, p: int) -> tuple[int, ...]:
    """Vector of F_p^n with index idx = sum v_i p^i."""
    v = []
    for _ in range(n):
        v.append(idx % p)
        idx //= p
    return tuple(v)


def _idx_of(v: Sequence[int], p: int) -> int:
    """Index sum v_i p^i of a vector of F_p^n."""
    val = 0
    for c in reversed(list(v)):
        val = val * p + c
    return val


def vector_actions(mats: Sequence[MatFp], n: int, p: int) -> list[list[int]]:
    """Each matrix as a map on vector indices: entry i is the index of M v_i.

    v_i is the vector of F_p^n with index i (the layout of `_vec_of`).
    """
    weights = p ** np.arange(n, dtype=np.int64)
    vectors = np.arange(p**n, dtype=np.int64)[:, None] // weights % p
    return [
        (vectors @ np.array(M.rows(), dtype=np.int64).T % p @ weights).tolist()
        for M in mats
    ]


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int):
    # mod is the coefficient tuple (c_0..c_{k-1}) of x^k + sum c_i x^i.
    k = len(mod)
    out = [0] * (2 * k)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for d in range(2 * k - 1, k - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for i, mi in enumerate(mod):
                out[d - k + i] = (out[d - k + i] - c * mi) % p
    return tuple(out[:k])


def _poly_divisible(poly: list[int], div: list[int], p: int) -> bool:
    # poly, div monic coefficient lists (low to high, last = 1).
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        if rem[-1] == 0:
            rem.pop()
            continue
        c = rem[-1]
        off = len(rem) - 1 - dd
        for i, di in enumerate(div):
            rem[off + i] = (rem[off + i] - c * di) % p
        rem.pop()
    return all(r == 0 for r in rem)


def _irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    k = len(coeffs)
    poly = list(coeffs) + [1]
    if poly[0] == 0:
        return False
    divisors: list[list[int]] = []
    for deg in range(1, k // 2 + 1):
        for low in _all_tuples(p, deg):
            divisors.append(list(low) + [1])
    return not any(_poly_divisible(poly, d, p) for d in divisors)


def _all_tuples(p: int, k: int):
    if k == 0:
        yield ()
        return
    for rest in _all_tuples(p, k - 1):
        for c in range(p):
            yield rest + (c,)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power(m: int) -> tuple[int, int] | None:
    """(p, r) with m = p^r for a prime p, or None if m is not a prime power."""
    if m < 2:
        return None
    p = 2
    while p * p <= m:
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            return (p, r) if m == 1 else None
        p += 1
    return (m, 1)


class SmallField:
    """F_{p^k} with a primitive modulus; elements are coefficient tuples."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        if k == 1:
            self.modulus = None
            self.alpha = (self._primitive_root_mod_p(),)
        else:
            self.modulus = self._find_primitive_modulus()
            self.alpha = tuple(int(i == 1) for i in range(k))  # x itself

    def _primitive_root_mod_p(self) -> int:
        p = self.p
        if p == 2:
            return 1
        fac = _prime_factors(p - 1)
        for g in range(2, p):
            if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
                return g
        raise AssertionError("no primitive root found")

    def _find_primitive_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        fac = _prime_factors(self.q - 1)
        for coeffs in _all_tuples(p, k):
            if not _irreducible(coeffs, p):
                continue
            x = tuple(int(i == 1) for i in range(k))
            if all(not self._is_one(self._pow(x, (self.q - 1) // f, coeffs)) for f in fac):
                return coeffs
        raise ParseError(f"no primitive polynomial found for F_{p}^{k}")

    def _is_one(self, a: tuple[int, ...]) -> bool:
        return a[0] == 1 and all(c == 0 for c in a[1:])

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if self.k == 1:
            return ((a[0] * b[0]) % self.p,)
        return _poly_mulmod(a, b, self.modulus, self.p)  # type: ignore[arg-type]

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _pow(self, a, e, mod=None):
        mod = mod if mod is not None else self.modulus
        out = self.one if self.k > 1 else (1,)
        base = a
        while e:
            if e & 1:
                out = _poly_mulmod(out, base, mod, self.p) if self.k > 1 else ((out[0] * base[0]) % self.p,)
            base = _poly_mulmod(base, base, mod, self.p) if self.k > 1 else ((base[0] * base[0]) % self.p,)
            e >>= 1
        return out

    def pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        return self._pow(a, e)

    def elements(self) -> list[tuple[int, ...]]:
        """All field elements; index of c is sum c_i p^i."""
        return [_vec_of(i, self.k, self.p) for i in range(self.q)]

    def index(self, a: tuple[int, ...]) -> int:
        return _idx_of(a, self.p)

    def mult_matrix(self, a: tuple[int, ...]) -> MatFp:
        """Multiplication-by-a as a k x k matrix over F_p (column action)."""
        k = self.k
        cols = []
        for j in range(k):
            basis = tuple(int(i == j) for i in range(k))
            cols.append(self.mul(a, basis))
        entries = [[cols[j][i] for j in range(k)] for i in range(k)]
        return MatFp(k, self.p, entries)

    def frobenius_matrix(self) -> MatFp:
        """The p-power map as a k x k matrix over F_p."""
        k = self.k
        cols = []
        for j in range(k):
            basis = tuple(int(i == j) for i in range(k))
            cols.append(self.pow(basis, self.p))
        entries = [[cols[j][i] for j in range(k)] for i in range(k)]
        return MatFp(k, self.p, entries)


@lru_cache(maxsize=None)
def small_field(p: int, k: int) -> SmallField:
    return SmallField(p, k)
