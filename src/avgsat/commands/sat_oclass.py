"""sat-oclass: the linear bound of the satisfiability scanner, in each
class of a counted space, in exact rational arithmetic."""

from __future__ import annotations

from fractions import Fraction

from .. import engines, measure
from ..cli import INFO, Options
from . import BOUND_HEADER, _load_table, bound_rows, comparison


def cmd_sat_oclass(opts: Options):
    n = opts.get("n")
    max_tokens = opts.get("max_tokens")
    table = _load_table(opts)
    header = ["check"] + BOUND_HEADER
    space = measure.space(table, [n], max_tokens)
    mu = measure.uniform_over_model_classes(space)
    terms = [measure.over_F(engines.sat_scan, lambda k: 2 * k),
             lambda x: (engines.rewrite_cost(x),), lambda x: (engines.sat_scan(x),)]
    # each class's sums: mass, sat / 2f, read, scan
    totals = measure.class_sums(space, mu, terms)
    sat = bound_rows(measure.member_rows(totals))
    rows = [["sat"] + row for row in sat]
    if table.negation_strategy() is not None:
        # the co row is the sat row: negation keeps each key's alpha,
        # count and weight, and permutes the classes, of equal mass here;
        # sat_scan / (2f) is (min_n + 1) / 2, which reads the mask alone
        rows.extend(["co"] + row for row in sat)
    else:
        rows.append(["co-skipped", str(n), *comparison(0, 0), INFO])
    # measured share of the checker's time spent reading the input
    # (the linear bound alone would put it at 1/2); informational only
    share = sum(s[2] for s in totals.values()) / sum(s[3] for s in totals.values())
    rows.append(["read-share", str(n), *comparison(share, Fraction(3, 10)), INFO])
    return header, rows
