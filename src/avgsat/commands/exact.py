"""The exact-verdict commands: sat-oclass, tab-oclass, moments,
property-2-2, property-2-3 and markov-tail.

Each builds a key space (or the Shannon model's slots) and decides its
bounds in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .. import engines, measure
from .._formula_core import ConnectiveTable
from ..cli import EXPECTED_FAIL, FAIL, INFO, PASS, Options, _float, _frac
from . import _load_table

# (command, model, n) triples whose bound is known not to hold; --audit
# reports them as expected_fail instead of fail.
KNOWN_DEVIATIONS = {("tab-oclass", "shannon", 1), ("tab-oclass", "shannon", 2)}



def _space(table: ConnectiveTable, n: int, max_tokens: int | None):
    """The covering space of n variables, or its sentences within max_tokens."""
    if max_tokens is None:
        return measure.covering_space(table, n)
    return measure.formula_space(table, n, max_tokens)


def cmd_sat_oclass(opts: Options):
    n = opts.get("n")
    max_tokens = opts.get("max_tokens")
    table = _load_table(opts)
    header = ["check"] + measure.BoundReport.CSV_HEADER
    space = _space(table, n, max_tokens)
    mu = measure.uniform_over_model_classes(space, n)
    report = measure.oclass_member(space, engines.sat_scan_time, lambda k: 2 * k, mu)
    rows = [["sat"] + row for row in report.csv_rows()]
    if table.negation_strategy() is None:
        rows.append(["co-skipped", str(n), "0", "1", "0", "1", "0.0", "0.0", INFO])
    else:
        # negation maps keys one to one, so the negated keys keep the counts
        co_space = measure.InputSpace.from_keys(
            {engines.negated_key(x, table): c for x, c in space.count.items()})
        mu_co = measure.uniform_over_model_classes(co_space, n)
        co_report = measure.oclass_member(co_space, engines.sat_scan_time, lambda k: 2 * k, mu_co)
        rows.extend(["co"] + row for row in co_report.csv_rows())
    # measured share of the checker's time spent reading the input
    # (the linear bound alone would put it at 1/2); informational only
    read = measure.avg_time(lambda x: engines.rewrite_cost(x).time_units, mu, space.items)
    share = read / measure.avg_time(engines.sat_scan_time, mu, space.items)
    rows.append(["read-share", str(n), *_frac(share), *_frac(Fraction(3, 10)),
                 _float(share), "0.3", INFO])
    return header, rows


def cmd_tab_oclass(opts: Options):
    audit = opts.get("audit")
    model = opts.get("model")
    ns = opts.get("n_list", [opts.get("n")])
    header = measure.BoundReport.CSV_HEADER
    rows = []
    if model == "shannon":
        from .. import analytic  # loaded only by the commands that use it
        for n in sorted(ns):
            tb = analytic.tabulator_class_bound(n)
            known = audit and ("tab-oclass", "shannon", n) in KNOWN_DEVIATIONS
            status = PASS if tb.passed else EXPECTED_FAIL if known else FAIL
            rows.append([str(n), *_frac(tb.lhs), *_frac(tb.rhs),
                         _float(tb.lhs), _float(tb.rhs), status])
    else:
        table = _load_table(opts)
        max_tokens = opts.get("max_tokens")
        for n in sorted(ns):
            space = measure.layer_blocks(measure.formula_space(table, n, max_tokens), n)
            mu = measure.uniform_within_min_layers(space, n)
            T = lambda x: engines.tabulate(x).time_units
            report = measure.oclass_member(space, T, lambda k: k ** 3, mu)
            rows.extend(report.csv_rows())
    return header, rows


def cmd_moments(opts: Options):
    from .. import analytic  # loaded only by the commands that use it
    m_list = opts.get("m_list")
    n_list = opts.get("n_list")
    tol = Fraction(1, 10 ** opts.get("tol_exp"))
    table = _load_table(opts)
    header = ["kind", "m", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    rows = []
    for m in sorted(m_list):
        s = analytic.geometric_moment_sum(m, tol)
        if m == 1:
            bound = Fraction(2)
            ok = abs(bound - s.partial) <= tol
        else:
            bound = analytic.moment_oclass_constant(m)
            ok = s.upper <= bound
        rows.append(["sum", str(m), "", *_frac(s.partial), *_frac(bound),
                     _float(s.partial), _float(bound), PASS if ok else FAIL])
    spaces = {}
    for n in sorted(n_list):
        space = measure.covering_space(table, n)
        spaces[n] = space, measure.uniform_over_model_classes(space, n)
    for m in sorted(m for m in m_list if m >= 2):
        c = analytic.moment_oclass_constant(m)
        for n, (space, mu) in spaces.items():
            T = lambda x: engines.sat_scan_time(x) ** m
            report = measure.oclass_member(space, T, lambda k: c * k ** m, mu)
            rows.extend(["oclass", str(m)] + row for row in report.csv_rows())
    return header, rows


def _combined_space(table: ConnectiveTable, ns: list[int], max_tokens: int | None):
    """One space holding the covering space for every class in ns."""
    count: dict[tuple, int] = {}
    for n in sorted(ns):
        count.update(_space(table, n, max_tokens).count)
    return measure.InputSpace.from_keys(count)


def cmd_property_2_2(opts: Options):
    ns = opts.get("n_list")
    max_tokens = opts.get("max_tokens")
    break_class = opts.get("break_class")
    inflate = opts.get("inflate")
    table = _load_table(opts)
    space = _combined_space(table, ns, max_tokens)
    mu = measure.uniform_over_model_classes(space)
    T = lambda x: engines.sat_scan_time(x) * (inflate if x[0] == break_class else 1)
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
        rows.append(["oclass", "", str(r.n), *_frac(r.lhs), *_frac(r.rhs),
                     _float(r.lhs), _float(r.rhs), status])
    for h in result.h_rows:
        broken = break_class is not None and (h.label == f"chi_{break_class}"
                                              or not h.label.startswith("chi_"))
        status = PASS if h.ok else EXPECTED_FAIL if broken else FAIL
        rows.append(["H", h.label, "", *_frac(h.lhs), *_frac(h.rhs),
                     _float(h.lhs), _float(h.rhs), status])
    bic = result.biconditional_ok
    if break_class is not None:
        # the demonstration must actually break the targeted class
        bic = bic and not result.oclass.row(break_class).passed
    rows.append(["biconditional", "", "", "0", "1", "0", "1", "0.0", "0.0",
                 PASS if bic else FAIL])
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
        T = engines.sat_scan_time
        F = lambda k: 2 * k
    else:
        from .. import analytic  # loaded only by the commands that use it
        space, T, mu = analytic.shannon_space(ns)
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
    avg = measure.avg_time(engines.sat_scan_time, mu, space.items)
    result = measure.markov_tail(engines.sat_scan_time, mu, space.items, multiplier * avg)
    ok = result.ok and result.empirical <= Fraction(1, multiplier)
    header = ["n", "multiplier", "avg_num", "avg_den", "bound_num", "bound_den",
              "empirical_num", "empirical_den", "status"]
    rows = [[str(n), str(multiplier), *_frac(avg), *_frac(result.bound),
             *_frac(result.empirical), PASS if ok else FAIL]]
    return header, rows
