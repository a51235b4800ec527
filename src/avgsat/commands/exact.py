"""The exact-verdict commands: sat-oclass, tab-oclass, moments,
property-2-2, property-2-3 and markov-tail.

Each builds a key space and decides its bounds in exact rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .. import engines, measure
from .._formula_core import ConnectiveTable
from ..cli import EXPECTED_FAIL, FAIL, INFO, PASS, OptionError, Options, _float, _frac
from . import _load_table

# (command, model, n) triples whose bound is known not to hold; --audit
# reports them as expected_fail instead of fail.
KNOWN_DEVIATIONS = {("tab-oclass", "shannon", 1), ("tab-oclass", "shannon", 2)}

# the columns of a bound report's rows, after any label columns
BOUND_HEADER = ["n", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "lhs_float", "rhs_float",
                "pass"]


def comparison(lhs, rhs) -> list[str]:
    """The cells of an exact comparison: lhs and rhs as numerator and
    denominator, then each as a float."""
    return [*_frac(lhs), *_frac(rhs), _float(lhs), _float(rhs)]


def bound_rows(report: measure.BoundReport, status=lambda r: PASS if r.passed else FAIL):
    """A bound report's rows: the class, the comparison of lhs with rhs,
    and ``status`` of the row."""
    return [[str(r.n), *comparison(r.lhs, r.rhs), status(r)] for r in report.rows]


def _space(table: ConnectiveTable, n: int, max_tokens: int | None):
    """The covering space of n variables, or its sentences within max_tokens."""
    if max_tokens is None:
        return measure.covering_space(table, n)
    return measure.formula_space(table, n, max_tokens)


def cmd_sat_oclass(opts: Options):
    n = opts.get("n")
    max_tokens = opts.get("max_tokens")
    table = _load_table(opts)
    header = ["check"] + BOUND_HEADER
    space = _space(table, n, max_tokens)
    mu = measure.uniform_over_model_classes(space, n)
    report = measure.oclass_member(space, engines.sat_scan, lambda k: 2 * k, mu)
    rows = [["sat"] + row for row in bound_rows(report)]
    if table.negation_strategy() is None:
        rows.append(["co-skipped", str(n), *comparison(0, 0), INFO])
    else:
        co_space = measure.InputSpace(engines.negated_keys(space.count, table))
        mu_co = measure.uniform_over_model_classes(co_space, n)
        co_report = measure.oclass_member(co_space, engines.sat_scan, lambda k: 2 * k, mu_co)
        rows.extend(["co"] + row for row in bound_rows(co_report))
    # measured share of the checker's time spent reading the input
    # (the linear bound alone would put it at 1/2); informational only
    read = measure.avg_time(engines.rewrite_cost, mu, space.items)
    share = read / measure.avg_time(engines.sat_scan, mu, space.items)
    rows.append(["read-share", str(n), *comparison(share, Fraction(3, 10)), INFO])
    return header, rows


def cmd_tab_oclass(opts: Options):
    audit = opts.get("audit")
    model = opts.get("model")
    ns = opts.get("n_list", [opts.get("n")])
    if model == "shannon":
        from .. import analytic  # loaded only by the commands that use it
    else:
        table = _load_table(opts)
        max_tokens = opts.get("max_tokens")
    rows = []
    for n in sorted(ns):
        if model == "shannon":
            space, mu = analytic.shannon_space([n])
        else:
            space = measure.layer_blocks(measure.formula_space(table, n, max_tokens), n)
            mu = measure.uniform_within_min_layers(space, n)
        known = audit and ("tab-oclass", model, n) in KNOWN_DEVIATIONS
        report = measure.oclass_member(space, engines.tabulate, lambda k: k ** 3, mu)
        rows.extend(bound_rows(report, lambda r: PASS if r.passed
                               else EXPECTED_FAIL if known else FAIL))
    return BOUND_HEADER, rows


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
    from ..moments import moment_cutoff
    work = 0.0
    for m in m_list:
        cutoff = moment_cutoff(m, tol_exp)
        work += cutoff * (cutoff + 26 * m ** 1.5)
        if 3 in n_list and m >= 2:
            work += 7.7e8 + 3.7e4 * m * m
    return work


def cmd_moments(opts: Options):
    from .. import moments  # loaded only by this command
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
    # the spaces first: one past n = 3 is refused before any sum
    spaces = {}
    for n in sorted(n_list):
        space = measure.covering_space(table, n)
        spaces[n] = space, measure.uniform_over_model_classes(space, n)
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
    for m in sorted(m for m in m_list if m >= 2):
        c = moments.moment_oclass_constant(m)
        for n, (space, mu) in spaces.items():
            T = lambda x: engines.sat_scan(x) ** m
            report = measure.oclass_member(space, T, lambda k: c * k ** m, mu)
            rows.extend(["oclass", str(m)] + row for row in bound_rows(report))
    return header, rows


def _combined_space(table: ConnectiveTable, ns: list[int], max_tokens: int | None):
    """One space holding the covering space for every class in ns."""
    count: dict[tuple, int] = {}
    for n in sorted(ns):
        count.update(_space(table, n, max_tokens).count)
    return measure.InputSpace(count)


def cmd_property_2_2(opts: Options):
    ns = opts.get("n_list")
    max_tokens = opts.get("max_tokens")
    break_class = opts.get("break_class")
    inflate = opts.get("inflate")
    table = _load_table(opts)
    space = _combined_space(table, ns, max_tokens)
    if break_class is not None and break_class not in space.classes:
        raise OptionError(f"--break-class {break_class}: not a class of the space "
                          f"({','.join(map(str, space.attained_classes()))})")
    mu = measure.uniform_over_model_classes(space)
    T = lambda x: engines.sat_scan(x) * (inflate if x[0] == break_class else 1)
    result = measure.check_property_2_2(
        space, T, lambda k: 2 * k, mu,
        extra_H=[("ones", lambda n: 1), ("linear", lambda n: n)])
    header = ["check", "label", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    rows = []
    # with --break-class, the broken class fails as expected, and so do its
    # chi row and the rows of weightings over every class
    for r in sorted(result.oclass.rows, key=lambda r: r.n):
        status = PASS if r.passed else EXPECTED_FAIL if break_class == r.n else FAIL
        rows.append(["oclass", "", str(r.n), *comparison(r.lhs, r.rhs), status])
    for h in result.h_rows:
        broken = break_class is not None and (h.label == f"chi_{break_class}"
                                              or not h.label.startswith("chi_"))
        status = PASS if h.ok else EXPECTED_FAIL if broken else FAIL
        rows.append(["H", h.label, "", *comparison(h.lhs, h.rhs), status])
    bic = result.biconditional_ok
    if break_class is not None:
        # the demonstration must actually break the targeted class
        bic = bic and not result.oclass.row(break_class).passed
    rows.append(["biconditional", "", "", *comparison(0, 0), PASS if bic else FAIL])
    return header, rows


def cmd_property_2_3(opts: Options):
    model = opts.get("model")
    exponent = opts.get("h_exponent")
    H = lambda n: Fraction(1, n ** exponent)
    ns = opts.get("n_list", [1, 2] if model == "sat" else [3, 4])
    if model == "sat":
        table = _load_table(opts)
        space = _combined_space(table, ns, opts.get("max_tokens"))
        mu = measure.uniform_over_model_classes(space, per_class=True)
        T = engines.sat_scan
        F = lambda k: 2 * k
    else:
        from .. import analytic  # loaded only by the commands that use it
        space, mu = analytic.shannon_space(ns)
        T = engines.tabulate
        F = lambda k: k ** 3
    result = measure.check_property_2_3(space, T, F, mu, H)
    header = ["model", "ns", "h_exponent", "expectation_num", "expectation_den",
              "bound_num", "bound_den", "mass_num", "mass_den",
              "expectation_float", "bound_float", "status"]
    rows = [[model, ";".join(str(n) for n in sorted(ns)), str(exponent),
             *_frac(result.expectation), *_frac(result.bound),
             *_frac(result.dominated_mass), _float(result.expectation),
             _float(result.bound), PASS if result.ok else FAIL]]
    return header, rows


def cmd_markov_tail(opts: Options):
    n = opts.get("n")
    multiplier = opts.get("multiplier")
    table = _load_table(opts)
    space = measure.covering_space(table, n)
    mu = measure.uniform_over_model_classes(space, n)
    avg = measure.avg_time(engines.sat_scan, mu, space.items)
    result = measure.markov_tail(engines.sat_scan, mu, space.items, multiplier * avg)
    ok = result.ok and result.empirical <= Fraction(1, multiplier)
    header = ["n", "multiplier", "avg_num", "avg_den", "bound_num", "bound_den",
              "empirical_num", "empirical_den", "status"]
    rows = [[str(n), str(multiplier), *_frac(avg), *_frac(result.bound),
             *_frac(result.empirical), PASS if ok else FAIL]]
    return header, rows
