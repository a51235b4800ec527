"""The closed-form and trend commands: expected-min, counting and
tractability.

expected-min and counting read the closed forms of
:mod:`avgsat.analytic`; tractability runs the streaming trend scan of
:mod:`avgsat.trend`.  None of them loads :mod:`avgsat.measure` or a
sentence space.
"""

from __future__ import annotations

from fractions import Fraction

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


# The most steps counting may take, in units of about 8 ns on 2 vCPUs
# (Python 3.11): each row's shape counts take about 10^4 (n_max + 1)^2
# of them and its partial sum p^2 (n_max + 1)^2 (its denominator grows as
# p * n_max digits), so a run takes (n_max + 1)^3 (p^2 + 10^4); the
# censuses to N = E take 7 * 10^4 (E + 1)^3 more.  --n-max 300 took 2.0 s,
# --n-max 100 --p 1000 8.4 s, --n-max 300 --p 100 6.2 s and --n-max 300
# --enum-limit 300 17 s; this is some 2.5 s.
MAX_COUNTING_WORK = 3 * 10 ** 11


def cmd_counting(opts: Options):
    n_max = opts.get("n_max")
    p = opts.get("p")
    enum_limit = opts.get("enum_limit")
    censused = max(min(enum_limit, n_max) + 1, 0)
    if (n_max + 1) ** 3 * (p * p + 10 ** 4) + 7 * 10 ** 4 * censused ** 3 > MAX_COUNTING_WORK:
        raise OptionError(f"--n-max {n_max} --p {p} --enum-limit {enum_limit} would take "
                          f"more than the {MAX_COUNTING_WORK:.0e} steps counting takes")
    from .. import analytic  # loaded only by the commands that use it
    header = ["N", "gamma", "catalan", "sentence_count", "enum_count",
              "F_num", "F_den", "F_float", "partial_num", "partial_den",
              "partial_float", "status"]
    rows = []
    partial = Fraction(0)
    for N in range(n_max + 1):
        g = analytic.gamma_count(N)
        cat = analytic.catalan_binomial(N)
        sc = analytic.sentence_count(N)
        t = analytic.totals_and_ratio(N, p)
        partial += t.ratio
        ok = g == cat
        enum_count = ""
        if N <= enum_limit:
            census = analytic.census(N)
            enum_count = str(census.count)
            ok = ok and census.count == sc and census.tabulate_total == t.tabulate_total
        rows.append([str(N), str(g), str(cat), str(sc), enum_count,
                     *_frac(t.ratio), _float(t.ratio), *_frac(partial),
                     _float(partial), PASS if ok else FAIL])
    return header, rows


# each case's default --budget is the length of its trend scan, `limit`
# the longest scan it runs, and `expect` the value of the trend.Verdict
# it should reach.  The float scan's time grows as its length, the exact
# ones' faster, as the digits of their sums do; on 2 vCPUs (Python 3.11)
# the commands at the limits took 2.2-3.2 s (harmonic), 2.5-2.9 s
# (geometric; 4,000 took 0.6 s and 14,400 took 13.6 s) and 2.2 s
# (constant; 20,000 took 1.2 s)
_CASES = {
    "harmonic": dict(T=lambda n: n, mu=lambda n: 1.0 / (n * n), budget=10 ** 6,
                     limit=10 ** 7, start=1, expect="divergent-trend"),
    "geometric": dict(T=lambda n: 2 ** n, mu=lambda n: Fraction(1, 4 ** n), budget=60,
                      limit=8000, start=0, expect="convergent"),
    "constant": dict(T=lambda n: 5, mu=lambda n: Fraction(1, n), budget=60,
                     limit=30000, start=1, expect="convergent"),
}


def cmd_tractability(opts: Options):
    from .. import trend  # loaded only by the command that uses it
    case = opts.get("case")
    case_def = _CASES[case]
    budget = opts.get("budget", case_def["budget"])
    if budget > case_def["limit"]:
        raise OptionError(f"--budget {budget}: --case {case} scans at most "
                          f"{case_def['limit']} classes")
    start = case_def["start"]
    res = trend.tractability(case_def["T"], case_def["mu"], range(start, start + budget),
                             eps=opts.get("eps"), cap=opts.get("cap"))
    header = ["case", "prefix", "value_num", "value_den", "value_float",
              "verdict", "status"]
    status = PASS if res.verdict.value == case_def["expect"] else FAIL
    rows = [[case, str(k), *(_frac(v) if isinstance(v, Fraction) else ["", ""]), _float(v),
             res.verdict.value, status] for k, v in res.checkpoints.items()]
    return header, rows
