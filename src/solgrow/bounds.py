"""Derived-length and cost bounds for soluble linear groups, plus the
structural tests (irreducibility, transitivity, primitivity) they apply to.

Bound shapes:
  rho(n)  < 5*log9(n) + 6          derived length, soluble linear degree n
  sigma(n): 1, 4, 5, 5, 5, 6, 6 for n = 1..7;
            sigma(n) <= 5*log9(n) + 8 - 15*log9(2) beyond the table
  cost bounds: 3*log4(n) for transitive permutation groups,
               3*log4(n) + K for irreducible linear groups,
               with K = -5/2 + 3*log4(10).
"""

from __future__ import annotations

import math
from typing import Sequence

from .elements import MatFp, Perm
from .errors import CapExceeded, InvariantViolated
from .fields import _vec_of, vector_actions
from .table import FiniteGroupTable, _orbit

SIGMA_TABLE = {1: 1, 2: 4, 3: 5, 4: 5, 5: 5, 6: 6, 7: 6}
SPIN_CAP = 10_000

# Exact descriptions (c_num, c_den, r, s) of c_num/c_den + r*log4(10) + s*log4(n),
# consumed by MuValue.cmp_bound for exact comparisons.
MU_TRANSITIVE_BOUND = (0, 1, 0, 3)
MU_IRREDUCIBLE_BOUND = (-5, 2, 3, 3)


def rho_bound(n: int) -> float:
    """Strict upper bound on derived lengths of soluble linear groups."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 5 * math.log(n, 9) + 6


def rho_int_bound(n: int) -> int:
    """Largest integer strictly below rho_bound(n), computed exactly.

    k < 5*log9(n) + 6 iff 9^(k-6) < n^5, so a float estimate is corrected
    by exact integer power comparisons (handles the integer-bound case
    n = 9^j, where the answer drops by one, with no special casing).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def below(k: int) -> bool:
        e = k - 6
        return 9**e < n**5 if e >= 0 else 1 < n**5 * 9 ** (-e)

    k = math.floor(5 * math.log(n, 9) + 6)
    while below(k + 1):
        k += 1
    while not below(k):
        k -= 1
    return k


def sigma_value(n: int) -> dict:
    """Exact table value for n <= 7, else the general formula bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n in SIGMA_TABLE:
        return {"n": n, "exact": SIGMA_TABLE[n], "bound": sigma_formula(n)}
    return {"n": n, "exact": None, "bound": sigma_formula(n)}


def sigma_formula(n: int) -> float:
    return 5 * math.log(n, 9) + 8 - 15 * math.log(2, 9)


def mu_bound(n: int, kind: str) -> float:
    """Numeric value of the cost bound for the given structural context."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "transitive":
        return 3 * math.log(n, 4)
    if kind == "irreducible":
        return 3 * math.log(n, 4) + mu_bound_constant()
    raise ValueError(f"unknown bound kind {kind!r}")


def mu_bound_constant() -> float:
    """K = -5/2 + 3*log4(10)."""
    return -2.5 + 3 * math.log(10, 4)


def bound_decimal(expr: str, n: int = 1, digits: int = 30) -> str:
    """30-digit decimal string for a named bound at n."""
    from mpmath import mp, mpf, log

    old = mp.dps
    try:
        mp.dps = digits + 5
        ln4, ln9, ln10, ln2 = log(4), log(9), log(10), log(2)
        if expr == "rho":
            val = 5 * log(n) / ln9 + 6
        elif expr == "sigma":
            val = mpf(SIGMA_TABLE[n]) if n in SIGMA_TABLE else 5 * log(n) / ln9 + 8 - 15 * ln2 / ln9
        elif expr == "mu_transitive":
            val = 3 * log(n) / ln4
        elif expr == "mu_irreducible":
            val = 3 * log(n) / ln4 - mpf(5) / 2 + 3 * ln10 / ln4
        else:
            raise ValueError(f"unknown bound {expr!r}")
        return mp.nstr(val, digits)
    finally:
        mp.dps = old


# -- linear structure ---------------------------------------------------------


def _echelon_insert(basis: list[list[int]], vec: Sequence[int], p: int) -> bool:
    """Insert vec into a row-echelon basis mod p; True if rank grew."""
    v = [x % p for x in vec]
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x)
        if v[piv]:
            f = v[piv] * pow(row[piv], p - 2, p) % p
            v = [(x - f * y) % p for x, y in zip(v, row)]
    if any(v):
        basis.append(v)
        basis.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
        return True
    return False


def is_irreducible(gens: Sequence[MatFp]) -> bool:
    """No proper nonzero invariant subspace of F_p^n under the generators.

    Splits the nonzero vectors into orbits of <gens> and takes the rank of
    each: the span of an orbit is the submodule generated by any of its
    vectors, so the group is irreducible iff every orbit spans F_p^n.
    Inverses are not needed: in a finite group the orbit under the
    generators is the orbit under the group. Gated to p^n <= 10^4 ambient
    vectors.
    """
    if not gens:
        raise ValueError("empty generator list")
    n, p = gens[0].n, gens[0].p
    if p**n > SPIN_CAP:
        raise CapExceeded(f"p^n = {p**n} exceeds spin cap {SPIN_CAP}")
    if n == 1:
        return True
    maps = vector_actions(gens, n, p)
    seen = bytearray(p**n)
    seen[0] = 1
    for v in range(1, p**n):
        orbit = _orbit(maps, (v,), seen)
        basis: list[list[int]] = []
        for w in orbit:
            if len(basis) == n:
                break
            _echelon_insert(basis, _vec_of(w, n, p), p)
        if orbit and len(basis) < n:
            return False
    return True


def is_transitive_on(gens: Sequence[Perm], degree: int) -> bool:
    """Whether <gens> moves point 0 to every one of `degree` points.

    Inverses are not needed: in a finite group the orbit under the
    generators is the orbit under the group.
    """
    return len(_orbit([g.images for g in gens], (0,), bytearray(degree))) == degree


def permutation_structure(T: FiniteGroupTable) -> dict:
    """Transitivity, minimal block systems, and primitivity of a perm table."""
    if T.elements is None or not isinstance(T.elements[0], Perm):
        raise ValueError("table is not permutation-backed")
    degree = T.elements[0].degree
    gens = [T.elements[g] for g in T.generators]
    transitive = is_transitive_on(gens, degree)
    blocks: list[list[list[int]]] = []
    if transitive and degree > 1:
        seen_partitions = set()
        for beta in range(1, degree):
            part = _block_partition(gens, degree, 0, beta)
            sizes = {len(b) for b in part}
            if len(part) in (1, degree):
                continue
            key = tuple(tuple(b) for b in part)
            if key not in seen_partitions:
                seen_partitions.add(key)
                if len(sizes) != 1:
                    raise InvariantViolated("blocks of unequal size")
                blocks.append([list(b) for b in part])
    primitive = transitive and not blocks and degree > 1
    return {"transitive": transitive, "primitive": primitive, "block_systems": blocks}


def _block_partition(gens: list[Perm], degree: int, alpha: int, beta: int):
    """Finest G-congruence merging alpha and beta (union-find closure)."""
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(alpha, beta)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for g in gens:
            queue.append((g(x), g(y)))
    classes: dict[int, list[int]] = {}
    for x in range(degree):
        classes.setdefault(find(x), []).append(x)
    return sorted([sorted(c) for c in classes.values()])
