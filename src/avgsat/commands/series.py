"""The closed-form and trend commands: expected-min, counting and
tractability.

expected-min and counting read the closed forms of
:mod:`avgsat.analytic` and load no :mod:`avgsat.measure`; tractability
runs the streaming trend scan of :mod:`avgsat.measure` and loads no
sentence space.
"""

from __future__ import annotations

from fractions import Fraction

from ..cli import FAIL, PASS, Options, _float, _frac


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


def cmd_counting(opts: Options):
    from .. import analytic  # loaded only by the commands that use it
    n_max = opts.get("n_max")
    p = opts.get("p")
    enum_limit = opts.get("enum_limit")
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


# each case's default --budget is the length of its trend scan, and
# `expect` the value of the measure.Verdict it should reach
_CASES = {
    "harmonic": dict(T=lambda n: n, mu=lambda n: 1.0 / (n * n), budget=10 ** 6,
                     start=1, exact=False, expect="divergent-trend"),
    "geometric": dict(T=lambda n: 2 ** n, mu=lambda n: Fraction(1, 4 ** n), budget=60,
                      start=0, exact=True, expect="convergent"),
    "constant": dict(T=lambda n: 5, mu=lambda n: Fraction(1, n), budget=60,
                     start=1, exact=True, expect="convergent"),
}


def cmd_tractability(opts: Options):
    from .. import measure  # loaded only by the command that uses it
    case = opts.get("case")
    case_def = _CASES[case]
    budget = opts.get("budget", case_def["budget"])
    start = case_def["start"]
    res = measure.tractability(case_def["T"], case_def["mu"], range(start, start + budget),
                               eps=opts.get("eps"), cap=opts.get("cap"),
                               exact=case_def["exact"])
    header = ["case", "prefix", "value_num", "value_den", "value_float",
              "verdict", "status"]
    status = PASS if res.verdict.value == case_def["expect"] else FAIL
    rows = [[case, str(k), *(_frac(v) if case_def["exact"] else ["", ""]), _float(v),
             res.verdict.value, status] for k, v in res.checkpoints.items()]
    return header, rows
