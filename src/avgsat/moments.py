"""Geometric moment sums with certified tail bounds, for the moments
command alone: the sums of i^m / 2^i over i >= 1, their cutoffs and
the moment-bound constant.

Everything returns exact integers or rationals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class MomentSum(namedtuple("MomentSum", "m partial tail_bound cutoff")):
    """Certified approximation of sum over i >= 1 of i^m / 2^i: the
    partial sum to the cutoff and a bound on the tail past it."""

    __slots__ = ()

    @property
    def upper(self) -> Fraction:
        return self.partial + self.tail_bound


def geometric_moment_sum(m: int, tol: Fraction | float = Fraction(1, 10 ** 12)) -> MomentSum:
    """Partial sum of i^m / 2^i with a proven remainder below tol.

    Beyond i = cutoff >= 4m the term ratio is at most
    ((c+1)/c)^m / 2 < 0.65, so the tail is bounded by the next term
    times a geometric factor.  The cutoff doubles until the bound
    undercuts tol.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    cutoff, tail = _tail_cutoff(m, tol)
    num = sum(i ** m << (cutoff - i) for i in range(1, cutoff + 1))
    partial = Fraction(num, 1 << cutoff)
    return MomentSum(m, partial, tail, cutoff)


def _tail_cutoff(m: int, tol: Fraction) -> tuple[int, Fraction]:
    """(cutoff, tail bound) of :func:`geometric_moment_sum`."""
    cutoff = max(4 * m, 8)
    while True:
        ratio = Fraction((cutoff + 1) ** m, cutoff ** m * 2)
        next_term = Fraction((cutoff + 1) ** m, 2 ** (cutoff + 1))
        tail = next_term / (1 - ratio)
        if tail < tol:
            return cutoff, tail
        cutoff *= 2


def moment_cutoff(m: int, tol_exp: int) -> int:
    """The cutoff that ``geometric_moment_sum(m, 10^-tol_exp)`` reaches,
    from float logarithms of its tail bound, for an estimate of its work
    before any sum: the cutoff doubles from max(4m, 8) while
    log2(tail) >= -tol_exp * log2(10)."""
    cutoff = max(4 * m, 8)
    while (m * math.log2(cutoff + 1) - (cutoff + 1)
           - math.log2(1 - ((cutoff + 1) / cutoff) ** m / 2) >= -tol_exp * math.log2(10)):
        cutoff *= 2
    return cutoff


def moment_oclass_constant(m: int) -> Fraction:
    """The moment-bound constant 2.5 * m^(m+1) (m >= 2)."""
    if m < 2:
        raise ValueError("the constant is defined for m >= 2")
    return Fraction(5, 2) * m ** (m + 1)
