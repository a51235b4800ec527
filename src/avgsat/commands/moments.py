"""moments: the geometric moment sums i^m / 2^i over i >= 1 with their
certified tails and the moment-bound constant, and the bound of each
higher moment of the scanner's time in each class of a covering space,
in exact rational arithmetic."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .. import engines, measure
from ..cli import FAIL, PASS, OptionError, Options
from . import _load_table, bound_rows, comparison


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


@lru_cache(maxsize=None)
def _tail_cutoff(m: int, tol: Fraction) -> tuple[int, Fraction]:
    """(cutoff, tail bound) of :func:`geometric_moment_sum`, kept per
    (m, tol): a ``moments`` run asks for each of its entries twice, once
    to admit the run (:func:`_moments_work`) and once to sum it."""
    cutoff = max(4 * m, 8)
    while True:
        ratio = Fraction((cutoff + 1) ** m, cutoff ** m * 2)
        next_term = Fraction((cutoff + 1) ** m, 2 ** (cutoff + 1))
        tail = next_term / (1 - ratio)
        if tail < tol:
            return cutoff, tail
        cutoff *= 2


def moment_oclass_constant(m: int) -> Fraction:
    """The moment-bound constant 2.5 * m^(m+1) (m >= 2)."""
    if m < 2:
        raise ValueError("the constant is defined for m >= 2")
    return Fraction(5, 2) * m ** (m + 1)


# The most work moments may take over its distinct --m-list entries, in
# steps of about 55 ps on 2 vCPUs (Python 3.11).  An entry m sums
# i^m / 2^i to a cutoff C (_tail_cutoff), which took about
# C (C + 26 m^1.5) steps: 0.12 s at m = 500 (C = 8,000) and 1.6 s with
# --tol-exp 10^4 (C = 64,000).  Its oclass rows at n = 3, over the 7,566
# keys of the covering space, took 0.05 s + 2.4e-6 m^2 s more, 0.65 s at
# m = 500; those at n <= 2 (at most 104 keys) took under 0.01 s and are
# not counted.  At --n-list 1,2 the 20 entries 500..481 (4.6e10 steps)
# took 2.4 s, 1..300 (5.8e10) 3.4 s and 1..500 (3.4e11) 17 s.  The
# costliest single entry the declarations admit, m = 500 with --tol-exp
# 10^4 at --n-list 1,2,3, comes to 3.3e10 steps, and this admits it.
MAX_MOMENTS_WORK = 3.5 * 10 ** 10


def _moments_work(m_list, n_list, tol: Fraction) -> float:
    """The estimated steps of the moments of ``m_list`` (distinct), from
    each entry's cutoff, largest m first: once the total passes
    ``MAX_MOMENTS_WORK`` it is returned without the smaller entries
    (the costliest cutoff, m = 500 at --tol-exp 10^4, took 11 to 19 ms)."""
    work = 0.0
    for m in sorted(m_list, reverse=True):
        cutoff, _ = _tail_cutoff(m, tol)
        work += cutoff * (cutoff + 26 * m ** 1.5)
        if 3 in n_list and m >= 2:
            work += 7.7e8 + 3.7e4 * m * m
        if work > MAX_MOMENTS_WORK:
            break
    return work


def cmd_moments(opts: Options):
    m_list = opts.get("m_list")
    n_list = opts.get("n_list")
    tol_exp = opts.get("tol_exp")
    tol = Fraction(1, 10 ** tol_exp)
    if _moments_work(m_list, n_list, tol) > MAX_MOMENTS_WORK:
        raise OptionError(f"--m-list of {len(m_list)} entries up to {max(m_list)} at "
                          f"--tol-exp {tol_exp} would take more than the "
                          f"{MAX_MOMENTS_WORK:.1e} steps moments takes")
    table = _load_table(opts)
    header = ["kind", "m", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    # the space first: one past n = 3 is refused before any sum
    space = measure.space(table, n_list, None)
    rows = []
    for m in sorted(m_list):
        s = geometric_moment_sum(m, tol)
        if m == 1:
            bound = Fraction(2)
            ok = abs(bound - s.partial) <= tol
        else:
            bound = moment_oclass_constant(m)
            ok = s.upper <= bound
        rows.append(["sum", str(m), "", *comparison(s.partial, bound), PASS if ok else FAIL])
    # the oclass rows of every m >= 2 from one pass, each class of mass 1
    ms = sorted(m for m in m_list if m >= 2)
    terms = [measure.over_F(lambda x, m=m: engines.sat_scan(x) ** m,
                            lambda k, m=m, c=moment_oclass_constant(m): c * k ** m)
             for m in ms]
    if ms:
        mu = measure.uniform_over_model_classes(space, per_class=True)
        totals = measure.class_sums(space, mu, terms)
        for i, m in enumerate(ms, 1):
            rows.extend(["oclass", str(m)] + row
                        for row in bound_rows(measure.member_rows(totals, i)))
    return header, rows
