"""moments: the geometric moment sums with their certified tails, and
the bound of each higher moment of the scanner's time in each class of
a covering space, in exact rational arithmetic."""

from __future__ import annotations

from fractions import Fraction

from .. import engines, measure, moments
from ..cli import FAIL, PASS, OptionError, Options
from . import _load_table, bound_rows, comparison


# The most work moments may take over its distinct --m-list entries, in
# steps of about 55 ps on 2 vCPUs (Python 3.11).  An entry m sums
# i^m / 2^i to a cutoff C (moments.moment_cutoff), which took about
# C (C + 26 m^1.5) steps: 0.12 s at m = 500 (C = 8,000) and 1.6 s with
# --tol-exp 10^4 (C = 64,000).  Its oclass rows at n = 3, over the 7,566
# keys of the covering space, took 0.05 s + 2.4e-6 m^2 s more, 0.65 s at
# m = 500; those at n <= 2 (at most 104 keys) took under 0.01 s and are
# not counted.  At --n-list 1,2 the 20 entries 500..481 (4.6e10 steps)
# took 2.4 s, 1..300 (5.8e10) 3.4 s and 1..500 (3.4e11) 17 s.  The
# costliest single entry the declarations admit, m = 500 with --tol-exp
# 10^4 at --n-list 1,2,3, comes to 3.3e10 steps, and this admits it.
MAX_MOMENTS_WORK = 3.5 * 10 ** 10


def _moments_work(m_list, n_list, tol_exp: int) -> float:
    """The estimated steps of the moments of ``m_list`` (distinct)."""
    work = 0.0
    for m in m_list:
        cutoff = moments.moment_cutoff(m, tol_exp)
        work += cutoff * (cutoff + 26 * m ** 1.5)
        if 3 in n_list and m >= 2:
            work += 7.7e8 + 3.7e4 * m * m
    return work


def cmd_moments(opts: Options):
    m_list = opts.get("m_list")
    n_list = opts.get("n_list")
    tol_exp = opts.get("tol_exp")
    if _moments_work(m_list, n_list, tol_exp) > MAX_MOMENTS_WORK:
        raise OptionError(f"--m-list of {len(m_list)} entries up to {max(m_list)} at "
                          f"--tol-exp {tol_exp} would take more than the "
                          f"{MAX_MOMENTS_WORK:.1e} steps moments takes")
    tol = Fraction(1, 10 ** tol_exp)
    table = _load_table(opts)
    header = ["kind", "m", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    # the space first: one past n = 3 is refused before any sum
    space = measure.space(table, n_list, None)
    rows = []
    for m in sorted(m_list):
        s = moments.geometric_moment_sum(m, tol)
        if m == 1:
            bound = Fraction(2)
            ok = abs(bound - s.partial) <= tol
        else:
            bound = moments.moment_oclass_constant(m)
            ok = s.upper <= bound
        rows.append(["sum", str(m), "", *comparison(s.partial, bound), PASS if ok else FAIL])
    # the oclass rows of every m >= 2 from one pass, each class of mass 1
    ms = sorted(m for m in m_list if m >= 2)
    terms = [measure.over_F(lambda x, m=m: engines.sat_scan(x) ** m,
                            lambda k, m=m, c=moments.moment_oclass_constant(m): c * k ** m)
             for m in ms]
    if ms:
        mu = measure.uniform_over_model_classes(space, per_class=True)
        totals = measure.class_sums(space, mu, terms)
        for i, m in enumerate(ms, 1):
            rows.extend(["oclass", str(m)] + row
                        for row in bound_rows(measure.member_rows(totals, i)))
    return header, rows
