"""The modified derived length: exact cost arithmetic and optimal series.

A modified soluble series is a subnormal chain whose factors are abelian
(cost 1) or nilpotent of class exactly 2 (cost log4(10)); the invariant is
the minimum total cost. Costs are integer pairs (a, b) meaning
a + b*log4(10); since log4(10) is irrational the pair determines the
value, and comparisons reduce to exact big-integer power comparisons
(4^a1*10^b1 vs 4^a2*10^b2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

from .errors import CapExceeded, InvariantViolated, NotSoluble
from .table import (
    FiniteGroupTable,
    Subgroup,
    commutator_subgroup,
    is_soluble,
    whole_group,
)

BRUTE_CAP = 2048

ABELIAN = "abelian"
CLASS2 = "class2"


@total_ordering
class MuValue:
    """Exact cost a + b*log4(10) as a non-negative integer pair."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __add__(self, other: "MuValue") -> "MuValue":
        return MuValue(self.a + other.a, self.b + other.b)

    def __eq__(self, other) -> bool:
        return isinstance(other, MuValue) and (self.a, self.b) == (other.a, other.b)

    def __lt__(self, other: "MuValue") -> bool:
        return self.cmp(other) < 0

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def cmp(self, other: "MuValue") -> int:
        """Exact three-way comparison: sign of 4^da * 10^db - 1."""
        return self.cmp_bound(other.a, 1, other.b, 0, 1)

    def cmp_bound(self, c_num: int, c_den: int, r: int, s: int, n: int) -> int:
        """Compare with c_num/c_den + r*log4(10) + s*log4(n), exactly.

        Reduces to 2^(2A+B) * 5^B vs n^(s*c_den) with A = a*c_den - c_num
        and B = (b-r)*c_den; all integer arithmetic so ties are exact.
        """
        if c_den <= 0 or n < 1:
            raise ValueError("c_den must be positive and n >= 1")
        A = self.a * c_den - c_num
        B = (self.b - r) * c_den
        S = s * c_den
        e2, e5 = 2 * A + B, B
        num, den = 1, 1
        if e2 >= 0:
            num <<= e2
        else:
            den <<= -e2
        if e5 >= 0:
            num *= 5**e5
        else:
            den *= 5**-e5
        if S >= 0:
            rhs_num, rhs_den = n**S, 1
        else:
            rhs_num, rhs_den = 1, n ** (-S)
        lhs = num * rhs_den
        rhs = den * rhs_num
        return (lhs > rhs) - (lhs < rhs)

    def leq_bound(self, c_num: int, c_den: int, r: int, s: int, n: int) -> bool:
        return self.cmp_bound(c_num, c_den, r, s, n) <= 0

    @property
    def value(self) -> float:
        return self.a + self.b * math.log(10) / math.log(4)

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "value": self.value}

    def __repr__(self) -> str:
        return f"MuValue({self.a}, {self.b})"


MU_ZERO = MuValue(0, 0)
MU_ABELIAN_STEP = MuValue(1, 0)
MU_CLASS2_STEP = MuValue(0, 1)


@dataclass
class ModifiedSeries:
    """Subnormal chain H_0 > H_1 > ... > H_k = 1 with factor kinds."""

    chain: list[Subgroup]
    kinds: list[str]

    @property
    def cost(self) -> MuValue:
        a = sum(1 for k in self.kinds if k == ABELIAN)
        b = len(self.kinds) - a
        return MuValue(a, b)

    def cost_word(self) -> list[int]:
        """Per-step word costs: 4 for abelian steps, 10 for class-2 steps."""
        return [4 if k == ABELIAN else 10 for k in self.kinds]

    def validate(self, T: FiniteGroupTable) -> None:
        """Recheck normality and factor kinds of every step.

        Raises InvariantViolated on the first step that fails.
        """
        if not self.chain[-1].is_trivial():
            raise InvariantViolated("series does not end at 1")
        if len(self.kinds) != len(self.chain) - 1:
            raise InvariantViolated("series needs one kind per step")
        for i in range(1, len(self.chain)):
            head, sub = self.chain[i - 1], self.chain[i]
            if head.mask == sub.mask or not head.contains_set(sub):
                raise InvariantViolated("chain is not strictly descending")
            for x in sub.generators:
                for g in head.generators:
                    if T.conj(x, g) not in sub:
                        raise InvariantViolated("step is not normal")
            derived = commutator_subgroup(T, head, head)
            g3 = commutator_subgroup(T, derived, head)
            abelian = sub.contains_set(derived)
            class2 = sub.contains_set(g3) and not abelian
            if self.kinds[i - 1] == ABELIAN:
                if not abelian:
                    raise InvariantViolated("abelian step has nonabelian factor")
            elif not class2:
                raise InvariantViolated("class-2 step factor is not class exactly 2")


def _least_cost_series(
    T: FiniteGroupTable, H0: Subgroup, steps
) -> tuple[MuValue, ModifiedSeries]:
    """Least-cost modified series from H0, memoized on member masks.

    `steps(H)` yields the candidate first steps (K, kind) from a nontrivial
    H; the first strictly cheaper candidate wins ties.
    """
    if not is_soluble(T, H0):
        raise NotSoluble("modified derived length requires a soluble group")
    cost, chain, kinds = _least_cost(H0, steps, {})
    return cost, ModifiedSeries(chain, kinds)


def _least_cost(
    H: Subgroup, steps, memo: dict[bytes, tuple[MuValue, list[Subgroup], list[str]]]
) -> tuple[MuValue, list[Subgroup], list[str]]:
    """The recursion of `_least_cost_series`. Not a closure that calls
    itself: that is a reference cycle, which would keep the table `steps`
    reads alive until the cyclic collector next ran."""
    if H.is_trivial():
        return MU_ZERO, [H], []
    key = H.mask
    best = memo.get(key)
    if best is not None:
        return best
    for K, kind in steps(H):
        sub_cost, sub_chain, sub_kinds = _least_cost(K, steps, memo)
        cost = (MU_ABELIAN_STEP if kind == ABELIAN else MU_CLASS2_STEP) + sub_cost
        if best is None or cost < best[0]:
            best = (cost, [H] + sub_chain, [kind] + sub_kinds)
    if best is None:
        raise InvariantViolated("soluble head admits no modified step")
    memo[key] = best
    return best


def mu_bruteforce(
    T: FiniteGroupTable,
    start: Subgroup | None = None,
) -> tuple[MuValue, ModifiedSeries]:
    """Global minimum cost over all modified soluble series, by recursion.

    mu(1) = 0 and mu(H) minimizes step-cost + mu(K) over proper normal
    subgroups K of H whose factor H/K is abelian or of class exactly 2
    (equivalently K contains gamma_3(H); abelian iff K contains H').
    """
    from .soluble import normal_subgroups_within

    H0 = start if start is not None else whole_group(T)
    if H0.order > BRUTE_CAP:
        raise CapExceeded(f"order {H0.order} exceeds brute-force cap {BRUTE_CAP}")

    def steps(H: Subgroup):
        derived = commutator_subgroup(T, H, H)
        g3 = commutator_subgroup(T, derived, H)
        for K in normal_subgroups_within(T, H).subgroups:
            if K.order < H.order and K.contains_set(g3):
                yield K, ABELIAN if K.contains_set(derived) else CLASS2

    return _least_cost_series(T, H0, steps)


def mu_fast(
    T: FiniteGroupTable, start: Subgroup | None = None
) -> tuple[MuValue, ModifiedSeries]:
    """Minimum cost via the canonical derived/gamma_3 first steps.

    By monotonicity of the invariant under subgroups, an optimal series may
    take its first step to the derived subgroup (abelian factor, cost 1) or
    to gamma_3 (class-2 factor, cost log4(10)); recursing on those two
    candidates only makes this scale far beyond the brute-force search.
    Equality with mu_bruteforce is property-tested over the corpus.
    """

    def steps(H: Subgroup):
        derived = commutator_subgroup(T, H, H)
        yield derived, ABELIAN
        g3 = commutator_subgroup(T, derived, H)
        if g3.order < derived.order:
            yield g3, CLASS2

    return _least_cost_series(T, start if start is not None else whole_group(T), steps)
