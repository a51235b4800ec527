"""property-2-2: the equivalence of per-class O(F) membership with
bounds under every reweighting by a function of the class, checked
exactly."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence

from .. import engines, measure
from ..cli import EXPECTED_FAIL, FAIL, PASS, OptionError, Options
from . import _load_table, comparison


class HRow(namedtuple("HRow", "label lhs rhs ok")):
    """A reweighting's row: expected T (lhs) against expected F(f) (rhs)
    under the reweighted distribution, and whether lhs <= rhs."""

    __slots__ = ()


class Prop22Result(namedtuple("Prop22Result", "oclass h_rows per_class_agreement")):
    """Both directions of the bound/reweighting equivalence.

    ``oclass`` holds the per-class membership rows; ``h_rows`` holds,
    for each tested H, the comparison of expected T against expected
    F(f) under the H-reweighted distribution.  The class rows and the
    characteristic-function rows must agree verdict by verdict.
    """

    __slots__ = ()

    @property
    def biconditional_ok(self) -> bool:
        return self.per_class_agreement and (
            all(r.passed for r in self.oclass.values()) == all(r.ok for r in self.h_rows))


def check_property_2_2(space: measure.InputSpace, T: Callable, F: Callable[[int], object],
                       mu: Mapping,
                       extra_H: Sequence[tuple[str, Callable]] = ()) -> Prop22Result:
    """Exact verification of the membership/reweighting equivalence.

    The H family is every characteristic function of an attained
    alpha-class plus any user-supplied (label, H) pairs.  For each H
    with a normalizable reweighting, expected T must not exceed
    expected F(f) under the reweighted distribution exactly when the
    per-class membership rows pass.  Both expectations are read from
    per-class sums (see :func:`~avgsat.measure._reweighted`), so no
    reweighted distribution is built.
    """
    totals = measure.class_sums(space, mu, [measure.over_F(T, F),
                                            measure.over_F(lambda x: 1, F)])
    oc = measure.member_rows(totals)
    families = [(f"chi_{n}", n, (lambda n: lambda k: 1 if k == n else 0)(n)) for n in oc]
    families.extend((label, None, H) for label, H in extra_H)
    h_rows, per_class = [], True
    for label, n, H in families:
        rhs, lhs, total = measure._reweighted(H, totals)
        if total:  # zero when H vanishes on every positive-mass class
            lhs, rhs = lhs / total, rhs / total
            h_rows.append(HRow(label, lhs, rhs, lhs <= rhs))
            per_class = per_class and (n is None or (lhs <= rhs) == oc[n].passed)
    return Prop22Result(oc, h_rows, per_class)


def cmd_property_2_2(opts: Options):
    ns = opts.get("n_list")
    max_tokens = opts.get("max_tokens")
    break_class = opts.get("break_class")
    inflate = opts.get("inflate")
    table = _load_table(opts)
    space = measure.space(table, ns, max_tokens)
    if break_class is not None and break_class not in space.classes:
        raise OptionError(f"--break-class {break_class}: not a class of the space "
                          f"({','.join(map(str, space.attained_classes()))})")
    mu = measure.uniform_over_model_classes(space)
    T = lambda x: engines.sat_scan(x) * (inflate if x[0] == break_class else 1)
    result = check_property_2_2(space, T, lambda k: 2 * k, mu,
                                extra_H=[("ones", lambda n: 1), ("linear", lambda n: n)])
    header = ["check", "label", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    rows = []
    # with --break-class, the broken class fails as expected, and so do its
    # chi row and the rows of weightings over every class
    for r in result.oclass.values():
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
        bic = bic and not result.oclass[break_class].passed
    rows.append(["biconditional", "", "", *comparison(0, 0), PASS if bic else FAIL])
    return header, rows
