"""property-2-3: the transfer of per-class O(F) bounds to a whole-space
expectation under summable class weights, checked exactly."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction

from .. import engines, measure
from ..cli import FAIL, PASS, Options, _float, _frac
from ..errors import PreconditionFailed
from . import _load_table


class Prop23Result(namedtuple("Prop23Result", "bound expectation dominated_mass ok")):
    """Transfer of a per-class O(F) bound to a whole-space expectation.

    ``expectation`` is the exact sum of T against the dominating
    sub-distribution H(alpha)/F(f) * mu (mu normalized per class); the
    certified bound is the sum of H over attained classes.  The
    sub-distribution's total mass is reported alongside; dividing the
    expectation by it gives the conditional average, which the bound
    does not cover when the mass is below 1.
    """

    __slots__ = ()


def check_property_2_3(space: measure.InputSpace, T: Callable, F: Callable[[int], object],
                       mu: Mapping, H: Callable[[int], object]) -> Prop23Result:
    """Certify expected T <= sum of H(n) under the dominated reweighting.

    Precondition: mu is normalized per class, that is, every class of
    positive mass has mass exactly 1 (each membership row's rhs), and
    the O(F) membership rows all pass; raises PreconditionFailed
    otherwise.  The sums are read per class, as in
    :func:`~avgsat.commands.property_2_2.check_property_2_2`.
    """
    totals = measure.class_sums(space, mu, [measure.over_F(T, F),
                                            measure.over_F(lambda x: 1, F)])
    oc = measure.member_rows(totals)
    if any(r.rhs != 1 for r in oc.values()):
        raise PreconditionFailed("mu must be normalized once per class")
    if not all(r.passed for r in oc.values()):
        raise PreconditionFailed("O(F) membership fails on this space")
    _, expectation, mass = measure._reweighted(H, totals)
    bound = measure._sum(Fraction(H(n)) for n in space.attained_classes())
    return Prop23Result(bound, expectation, mass, expectation <= bound)


def cmd_property_2_3(opts: Options):
    model = opts.get("model")
    exponent = opts.get("h_exponent")
    H = lambda n: Fraction(1, n ** exponent)
    ns = opts.get("n_list", [1, 2] if model == "sat" else [3, 4])
    if model == "sat":
        table = _load_table(opts)
        space = measure.space(table, ns, opts.get("max_tokens"))
        mu = measure.uniform_over_model_classes(space, per_class=True)
        T = engines.sat_scan
        F = lambda k: 2 * k
    else:
        from .. import analytic  # loaded only by the commands that use it
        space, mu = analytic.shannon_space(ns)
        T = engines.tabulate
        F = lambda k: k ** 3
    result = check_property_2_3(space, T, F, mu, H)
    header = ["model", "ns", "h_exponent", "expectation_num", "expectation_den",
              "bound_num", "bound_den", "mass_num", "mass_den",
              "expectation_float", "bound_float", "status"]
    rows = [[model, ";".join(str(n) for n in sorted(ns)), str(exponent),
             *_frac(result.expectation), *_frac(result.bound),
             *_frac(result.dominated_mass), _float(result.expectation),
             _float(result.bound), PASS if result.ok else FAIL]]
    return header, rows
