"""Named generating sets used across the verification suites.

Names are case- and whitespace-insensitive. Fixed names cover the
recurring small groups; parametric names cover symmetric/cyclic groups,
one-dimensional affine and semilinear groups over small fields, monomial
groups, wreath products (permutation wreaths `AwrB`, matrix wreaths
`MwrSk`), and the Sym(4) tree-tower truncations.
"""

from __future__ import annotations

import re

from .constructions import (
    affine_semidirect,
    cyclic_gens,
    matrix_wreath,
    sym_gens,
    wreath_product,
)
from .elements import GenSet, Lamplighter, MatFp, MatZ
from .errors import UnknownName
from .fields import _prime_power, small_field
from .table import enumerate_group


def _q8_gens() -> list[MatFp]:
    return [MatFp(2, 3, [[0, 2], [1, 0]]), MatFp(2, 3, [[1, 1], [1, 2]])]


def _sl23_gens() -> list[MatFp]:
    return [MatFp(2, 3, [[0, 2], [1, 0]]), MatFp(2, 3, [[1, 1], [0, 1]])]


def _gl23_gens() -> list[MatFp]:
    return _sl23_gens() + [MatFp(2, 3, [[1, 0], [0, 2]])]


def _gl22_gens() -> list[MatFp]:
    return [MatFp(2, 2, [[0, 1], [1, 0]]), MatFp(2, 2, [[1, 1], [0, 1]])]


def _gl32_gens() -> list[MatFp]:
    return [
        MatFp(3, 2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        MatFp(3, 2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ]


def _agl1(q_spec: str) -> GenSet:
    p, k = _prime_power_of(int(q_spec))
    F = small_field(p, k)
    from .elements import Perm

    els = F.elements()
    add_one = Perm([F.index(F.add(v, F.one)) for v in els])
    mult = Perm([F.index(F.mul(v, F.alpha)) for v in els])
    if F.q == 2:
        return GenSet([add_one])
    return GenSet([add_one, mult])


def _gammal1(q_spec: str) -> GenSet:
    p, k = _prime_power_of(int(q_spec))
    F = small_field(p, k)
    gens = [F.mult_matrix(F.alpha)]
    if k > 1:
        gens.append(F.frobenius_matrix())
    return GenSet(gens)


def _prime_power_of(q: int) -> tuple[int, int]:
    pr = _prime_power(q)
    if pr is None:
        raise UnknownName(f"{q} is not a prime power" if q < 2 else "not a prime power")
    return pr


_FIXED = {
    "q8": lambda: GenSet(_q8_gens()),
    "sl2(3)": lambda: GenSet(_sl23_gens()),
    "gl2(3)": lambda: GenSet(_gl23_gens()),
    "gl2(2)": lambda: GenSet(_gl22_gens()),
    "gl3(2)": lambda: GenSet(_gl32_gens()),
    "agl2(3)": lambda: affine_semidirect(2, 3, _gl23_gens()),
    "f3^2:q8": lambda: affine_semidirect(2, 3, _q8_gens()),
    "f2^3:c7": lambda: affine_semidirect(
        3, 2, [small_field(2, 3).mult_matrix(small_field(2, 3).alpha)]
    ),
    "heisenberg": lambda: GenSet(
        [
            MatZ(3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            MatZ(3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        ]
    ),
    "z2": lambda: GenSet(
        [
            MatZ(3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
            MatZ(3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        ]
    ),
    "sanov": lambda: GenSet([MatZ(2, [[1, 2], [0, 1]]), MatZ(2, [[1, 0], [2, 1]])]),
    "lamplighter": lambda: GenSet([Lamplighter([], 1), Lamplighter([0], 0)]),
}


def catalog(name: str) -> GenSet:
    """Generating set for a named group; raises UnknownName otherwise."""
    key = name.lower().replace(" ", "")
    if key in _FIXED:
        return _FIXED[key]()
    m = re.fullmatch(r"(?:sym\((\d+)\)|s(\d+))", key)
    if m:
        return sym_gens(int(m.group(1) or m.group(2)))
    m = re.fullmatch(r"(?:cyclic\((\d+)\)|c(\d+))", key)
    if m:
        return cyclic_gens(int(m.group(1) or m.group(2)))
    m = re.fullmatch(r"agl1\((\d+)\)", key)
    if m:
        return _agl1(m.group(1))
    m = re.fullmatch(r"gammal1\((\d+)\)", key)
    if m:
        return _gammal1(m.group(1))
    m = re.fullmatch(r"gl1\((\d+)\)", key)
    if m:
        p, k = _prime_power_of(int(m.group(1)))
        if k != 1:
            raise UnknownName("gl1(p) needs a prime p")
        F = small_field(p, 1)
        return GenSet([MatFp(1, p, [[F.alpha[0]]])])
    m = re.fullmatch(r"s4tower\((\d+)\)", key)
    if m:
        from .growth import s4_tower

        return s4_tower(int(m.group(1)))
    m = re.fullmatch(r"s4tower_derived\((\d+)\)", key)
    if m:
        from .growth import s4_tower_derived

        return s4_tower_derived(int(m.group(1)))
    # wreath grammar: split at each "wr" occurrence, first parse that works
    for match in re.finditer("wr", key):
        left, right = key[: match.start()], key[match.end() :]
        try:
            lgs = catalog(left)
        except UnknownName:
            continue
        if lgs.variant == "matfp":
            m2 = re.fullmatch(r"(?:sym\((\d+)\)|s(\d+))", right)
            if not m2:
                continue
            k = int(m2.group(1) or m2.group(2))
            return matrix_wreath(list(lgs.elements), k)  # type: ignore[arg-type]
        if lgs.variant == "perm":
            try:
                rgs = catalog(right)
            except UnknownName:
                continue
            if rgs.variant != "perm":
                continue
            return wreath_product(enumerate_group(lgs), enumerate_group(rgs))
    raise UnknownName(f"no catalog entry for {name!r}")

