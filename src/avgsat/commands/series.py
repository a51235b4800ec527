"""The closed-form and trend commands: expected-min, counting and
tractability.

expected-min and counting read the closed forms of
:mod:`avgsat.analytic`; tractability runs the streaming trend scan of
:mod:`avgsat.trend`.  None of them loads :mod:`avgsat.measure` or a
sentence space, and the harmonic scan, all floats, loads no
:mod:`fractions`.
"""

from __future__ import annotations

import math
from itertools import count, islice

from ..cli import FAIL, PASS, OptionError, Options, _float, _frac


def cmd_expected_min(opts: Options):
    from .. import analytic  # loaded only by the commands that use it
    n = opts.get("n")
    ns = range(0, n + 1) if opts.get("upto") else [n]
    header = ["n", "brute_num", "brute_den", "closed_num", "closed_den",
              "nonempty_num", "nonempty_den", "closed_float", "status"]
    rows = []
    for k in ns:
        em = analytic.expected_min_plus_one(k)
        brute = em.brute if em.brute is not None else em.closed
        ok = em.closed < 2 and em.nonempty_sum < 2
        rows.append([str(k), *_frac(brute), *_frac(em.closed),
                     *_frac(em.nonempty_sum), _float(em.closed),
                     PASS if ok else FAIL])
    return header, rows


# The most steps counting may take, in units of about 8.5 ps on 2 vCPUs
# (Python 3.11).  The shape counts are kept from row to row, so a run
# takes about n_max^2 convolution steps for them (0.07 s at --n-max 500);
# the time goes to writing the partial sums.  At row N the sum's
# numerator and denominator have about N (N + 9.4 p) / 11 digits, and
# their decimal conversion is quadratic in them, so a run takes about
# (n_max + 1)^3 (p^2 + p (n_max + 1) / 6 + (n_max + 1)^2 / 150) steps.
# The censuses to N = E read one completion table up to 2E + 1 tokens and
# take 10^3 (E + 1)^3 more: analytic.censuses took 0.09 s to E = 200,
# 0.87 s to 500 and 2.8 s to 700, under 8.5 ns per (E + 1)^3.  --n-max 500
# took 2.2 s and 700 10.5 s, --n-max 100 --p 1000 9.0 s and --n-max 300
# --p 100 3.8 s; this is some 2.5 s, and --n-max 479 --enum-limit 479,
# near the most it admits, took 2.5 s.
MAX_COUNTING_WORK = 3 * 10 ** 11


def cmd_counting(opts: Options):
    n_max = opts.get("n_max")
    p = opts.get("p")
    enum_limit = opts.get("enum_limit")
    n = n_max + 1  # rows
    censused = max(min(enum_limit, n_max) + 1, 0)
    work = n ** 3 * (p * p + p * n // 6 + n * n // 150) + 10 ** 3 * censused ** 3
    if work > MAX_COUNTING_WORK:
        raise OptionError(f"--n-max {n_max} --p {p} --enum-limit {enum_limit} would take "
                          f"more than the {MAX_COUNTING_WORK:.0e} steps counting takes")
    from fractions import Fraction  # not loaded by the float scan
    from .. import analytic  # loaded only by the commands that use it
    header = ["N", "gamma", "catalan", "sentence_count", "enum_count",
              "F_num", "F_den", "F_float", "partial_num", "partial_den",
              "partial_float", "status"]
    rows = []
    partial = Fraction(0)
    censuses = analytic.censuses(censused - 1)
    for N in range(n_max + 1):
        g = analytic.gamma_count(N)
        cat = analytic.catalan_binomial(N)
        sc = analytic.sentence_count(N)
        t = analytic.totals_and_ratio(N, p)
        partial += t.ratio
        ok = g == cat
        enum_count = ""
        if N < censused:
            census = censuses[N]
            enum_count = str(census.count)
            ok = ok and census.count == sc and census.tabulate_total == t.tabulate_total
        rows.append([str(N), str(g), str(cat), str(sc), enum_count,
                     *_frac(t.ratio), _float(t.ratio), *_frac(partial),
                     _float(partial), PASS if ok else FAIL])
    return header, rows


def _rises(num0, den0, num, den, first, last) -> bool:
    """Whether every partial of a harmonic segment is at least the one
    before it: the segment adds the classes ``first`` to ``last`` (float
    integers, consecutive) to the sums ``num0`` and ``den0 > 0`` and
    ends at ``num`` and ``den``.

    A class x adds t = fl(x * fl(1 / (x * x))) to num and w = fl(1 /
    (x * x)) to den.  x * x is exact below 2^53, and rounding is
    monotone, so w is at most ``w_hi = 1 / (first * first)``.  t has two
    roundings of 1 / x and ``t_lo`` two more of 1 / last; with u =
    2^-53 and each rounding within a factor 1 +- u (the standard model),
    t >= (1 - 2u) / x > (1 + u)^2 (1 - 8u) / last >= t_lo.  A rounded
    sum is within half an ulp of the result, and the result is at most
    the segment's last sum, so each class moves num by a >= t_lo -
    ulp(num) and den by 0 <= b <= w_hi + ulp(den).  Before it the sums
    are some n <= num and d >= den0, and n / d <= (n + a) / (d + b)
    holds when a d >= b n, which follows from (t_lo - ulp(num)) den0 >=
    (w_hi + ulp(den)) num.  The test asks twice that of the right side,
    which covers its own four roundings.  No quantity here comes near
    the float range's ends: weights are at least 10^-14.
    """
    w_hi = 1.0 / (first * first)
    t_lo = 1.0 / last * (1 - 2.0 ** -50)
    return (t_lo - math.ulp(num)) * den0 >= 2.0 * (w_hi + math.ulp(den)) * num


def _harmonic(xs, num, den, prev, monotone):
    """The trend.tractability step of T(n) = n under mu(n) = 1 / n^2 on
    float classes: the step of trend.terms(float, lambda n: 1.0 / (n *
    n)), with no call per class in the segments it proves.

    It reads the consecutive classes of the nonempty segments
    trend.tractability passes, each after the partial of the sums it
    starts with.  A segment that starts with positive mass ``den0`` runs
    the sums alone, with that step's operations in the same order, and
    asks :func:`_rises` whether the exact quotients of its sums rose.
    If they did, a correctly rounded division keeps their order, so no
    partial fell below the one before it, and the mass, at least
    ``den0``, never was 0: the step takes only the last partial.  The
    segment of the first class, whose sums start at 0, and a segment the
    bound does not prove run through that step itself, with the mass
    test and each partial, the latter again from the sums it started
    with.  Of the scan of 10^6 classes, (1, 10] and (10, 100] run class
    by class, and every later segment is proved.
    """
    if den > 0:
        num0, den0 = num, den
        first = next(xs)
        w = 1.0 / (first * first)
        num += first * w
        den += w
        last = first
        for last in xs:
            w = 1.0 / (last * last)
            num += last * w
            den += w
        if _rises(num0, den0, num, den, first, last):
            return num, den, num / den, monotone
        num, den = num0, den0
        xs = islice(count(first, 1.0), int(last - first) + 1)
    from .. import trend  # not compiled by expected-min and counting
    return trend.terms(float, lambda x: 1.0 / (x * x))(xs, num, den, prev, monotone)


def _ratio(num: int, den: int):
    """num / den as a Fraction, for the exact cases: the float one loads
    no fractions."""
    from fractions import Fraction
    return Fraction(num, den)


# each case's `step` is the trend.tractability step of its scan (built by
# trend.terms from `T` and `mu` where it has none), `start` its first
# class, whose type the classes take, its default --budget is the length
# of its scan, `limit` the longest scan it runs, and `expect` the value of
# the trend.Verdict it should reach.  The float scan's time grows as its
# length, the exact ones' faster, as the digits of their sums do; on 2
# vCPUs (Python 3.11) the commands at the limits took 0.84-0.87 s (harmonic;
# 1.2-1.5 s taking every partial), 2.5-2.9 s (geometric; 4,000 took 0.6 s
# and 14,400 took 13.6 s) and 2.2-2.6 s (constant; 20,000 took 1.2 s).
# harmonic starts at 1.0 and so scans floats: below 2^26.5 each n * n is
# exact in a float, so n * n, 1.0 / (n * n) and n * w round as they do on ints
_CASES = {
    "harmonic": dict(step=_harmonic, budget=10 ** 6, limit=10 ** 7, start=1.0,
                     expect="divergent-trend"),
    "geometric": dict(T=lambda n: 2 ** n, mu=lambda n: _ratio(1, 4 ** n), budget=60,
                      limit=8000, start=0, expect="convergent"),
    "constant": dict(T=lambda n: 5, mu=lambda n: _ratio(1, n), budget=60, limit=30000,
                     start=1, expect="convergent"),
}


def cmd_tractability(opts: Options):
    from .. import trend  # loaded only by the command that uses it
    case = opts.get("case")
    case_def = _CASES[case]
    budget = opts.get("budget", case_def["budget"])
    if budget > case_def["limit"]:
        raise OptionError(f"--budget {budget}: --case {case} scans at most "
                          f"{case_def['limit']} classes")
    step = case_def.get("step") or trend.terms(case_def["T"], case_def["mu"])
    res = trend.tractability(step, case_def["start"], budget, eps=opts.get("eps"),
                             cap=opts.get("cap"))
    header = ["case", "prefix", "value_num", "value_den", "value_float",
              "verdict", "status"]
    status = PASS if res.verdict.value == case_def["expect"] else FAIL
    rows = [[case, str(k), *(["", ""] if isinstance(v, float) else _frac(v)), _float(v),
             res.verdict.value, status] for k, v in res.checkpoints.items()]
    return header, rows
