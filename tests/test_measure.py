import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from avgsat import analytic, engines, measure, moments, tables, trend
from avgsat.commands import BOUND_HEADER, bound_rows
from avgsat.commands.markov_tail import markov_tail
from avgsat.commands.property_2_2 import check_property_2_2
from avgsat.commands.property_2_3 import Prop23Result, check_property_2_3
from avgsat.commands.tab_oclass import layer_blocks, uniform_within_min_layers
from avgsat.formula import Formula, enumerate_formulas
from avgsat.errors import PreconditionFailed, ZeroMass
from avgsat.measure import (ClassUncovered, InputSpace, ZeroMassSubset, avg_time,
                            oclass_member, tractability, uniform_over_model_classes)
from avgsat.trend import Verdict, terms
from avgsat.weighting import (HMode, nu_from_H, power_law_length, relative_avg, uniform_on,
                              validate, weights_proportional)

SAT_TIME = lambda x: engines.sat_scan(x[:3])
DOUBLE = lambda k: 2 * k


def key_space(*keys):
    """A space of the given keys (alpha, f, ...), each one input."""
    return InputSpace(dict.fromkeys(keys, 1))


def toy_space(values):
    """Keys (n, n): alpha = f = n."""
    return key_space(*((n, n) for n in values))


def of_size(space, n):
    """The keys of size f = n."""
    return [x for x in space.items if x[1] == n]


ALPHA = itemgetter(0)


# --- averages -----------------------------------------------------------

def test_avg_time_midpoint():
    sp = toy_space([1, 3])
    mu = uniform_on(sp)
    assert avg_time(ALPHA, mu, sp.items) == 2


def test_avg_time_conditioning_on_point():
    sp = toy_space([1, 3])
    mu = weights_proportional(sp, lambda x: Fraction(x[0], 7))
    assert avg_time({(1, 1): 17, (3, 3): 5}.__getitem__, mu, [(3, 3)]) == 5


def test_avg_time_zero_mass():
    sp = toy_space([1, 2])
    mu = uniform_on(sp, subset=[(1, 1)])
    with pytest.raises(ZeroMassSubset):
        avg_time(ALPHA, mu, [(2, 2)])


def test_avg_time_geometric_toy_approaches_three_halves():
    # T(n) = 2^n with weights proportional to 2^(-2n): the normalizer
    # tends to 3/4 and the average to twice that
    sp = key_space(*((n, n + 1) for n in range(50)))
    mu = weights_proportional(sp, lambda x: Fraction(1, 4 ** x[0]))
    assert abs(mu[(0, 1)] - Fraction(3, 4)) < Fraction(1, 10 ** 12)
    avg = avg_time(lambda x: 2 ** x[0], mu, sp.items)
    assert abs(avg - Fraction(3, 2)) < Fraction(1, 10 ** 12)


def test_relative_avg_cases():
    a, b, c = (1, 5, "a"), (1, 5, "b"), (2, 9, "c")
    sp = key_space(a, b, c)
    mu = uniform_on(sp)
    T = {a: 2, b: 4, c: 10}.__getitem__
    assert relative_avg(sp, T, mu, 7) == 1          # empty size class
    assert relative_avg(sp, T, mu, 9) == 10         # singleton
    assert relative_avg(sp, T, mu, 5) == 3
    assert relative_avg(sp, T, mu, 5) == avg_time(T, mu, of_size(sp, 5))


def test_relative_avg_identity_on_sentences(space2):
    mu = uniform_over_model_classes(space2)
    sizes = sorted({x[1] for x in space2.items})
    for s in sizes:
        items = of_size(space2, s)
        if ref_mass(mu, items) == 0:
            continue
        assert relative_avg(space2, SAT_TIME, mu, s) == avg_time(SAT_TIME, mu, items)


# --- O(F) membership -----------------------------------------------------

def test_oclass_trivial_quotient(space1):
    mu = uniform_on(space1)
    report = oclass_member(space1, itemgetter(1), lambda k: k, mu)
    assert list(report) == [1]
    row = report[1]
    assert row.lhs == ref_mass(mu, space1.class_items(1)) == row.rhs == 1
    assert row.passed


def test_oclass_requires_F_at_least_one(space1):
    mu = uniform_on(space1)
    with pytest.raises(ValueError):
        oclass_member(space1, SAT_TIME, lambda k: Fraction(1, k), mu)


def test_oclass_reads_no_key_of_weight_0():
    # F is 1/2 at the size of the key of weight 0, which no term reads;
    # given a positive weight, the same key is refused
    sp = InputSpace({(1, 1, 0): 1, (1, 2, 1): 1})
    F = lambda k: Fraction(k, 2)
    mu = {(1, 1, 0): Fraction(0), (1, 2, 1): Fraction(1)}
    assert oclass_member(sp, lambda x: 1, F, mu) == {1: measure.BoundRow(1, 1, 1, True)}
    mu = {(1, 1, 0): Fraction(1, 2), (1, 2, 1): Fraction(1, 2)}
    with pytest.raises(ValueError, match=r"F\(1\) = 1/2 < 1"):
        oclass_member(sp, lambda x: 1, F, mu)


def test_sat_oclass_passes_exactly(space1, space2):
    for n, sp in ((1, space1), (2, space2)):
        mu = uniform_over_model_classes(sp)
        report = oclass_member(sp, SAT_TIME, DOUBLE, mu)
        assert list(report) == [n] and report[n].passed
        expected = analytic.expected_min_plus_one(n).closed / 2
        assert report[n].lhs == expected
        assert report[n].rhs == 1


def test_classic_case_collapse():
    # alpha = f partition: membership is exactly the per-size-class
    # comparison of the relative average against F(n)
    a, b, c, d = (2, 2, "a"), (2, 2, "b"), (3, 3, "c"), (5, 5, "d")
    sp = key_space(a, b, c, d)
    mu = uniform_on(sp)
    T = {a: 1, b: 9, c: 3, d: 11}.__getitem__
    for F in (lambda k: k, lambda k: k * k, lambda k: 5):
        report = oclass_member(sp, T, F, mu)
        classic = all(relative_avg(sp, T, mu, n) <= F(n)
                      for n in sorted({x[1] for x in sp.items})
                      if ref_mass(mu, of_size(sp, n)) > 0)
        assert all(r.passed for r in report.values()) == classic


def test_bound_report_csv_schema(space1):
    mu = uniform_over_model_classes(space1)
    report = oclass_member(space1, SAT_TIME, DOUBLE, mu)
    rows = bound_rows(report)
    assert BOUND_HEADER[0] == "n" and BOUND_HEADER[-1] == "pass"
    assert len(rows[0]) == len(BOUND_HEADER)
    assert rows[0][0] == "1" and rows[0][-1] == "pass"
    assert Fraction(int(rows[0][1]), int(rows[0][2])) == report[1].lhs


# --- tractability ---------------------------------------------------------

def test_tractability_harmonic_divergent_trend():
    res = tractability(terms(lambda n: n, lambda n: 1.0 / (n * n)), 1, 10 ** 4)
    assert res.verdict is Verdict.DIVERGENT_TREND
    assert res.checkpoints[10] < res.final


def test_tractability_geometric_convergent():
    res = tractability(terms(lambda n: 2 ** n, lambda n: Fraction(1, 4 ** n)), 0, 61)
    assert res.verdict is Verdict.CONVERGENT
    assert abs(res.final - Fraction(3, 2)) < Fraction(1, 10 ** 12)


def test_tractability_constant():
    step = terms(lambda n: 7, lambda n: Fraction(1, n))
    res = tractability(step, 1, 24)
    assert res.verdict is Verdict.CONVERGENT
    # every prefix average, each the final partial of its own scan
    for k in range(1, 25):
        assert tractability(step, 1, k).final == 7


def test_tractability_final_equals_whole_space_average():
    # on a finite space the last prefix is the whole space
    sp = toy_space(range(1, 40))
    mu = weights_proportional(sp, lambda x: Fraction(1, 2 ** x[0]))
    res = tractability(terms(lambda n: n * n, lambda n: mu[(n, n)]), 1, 39)
    assert res.final == avg_time(lambda x: x[0] * x[0], mu, sp.items)


def test_tractability_empty_errors():
    for count in (0, -1):
        with pytest.raises(ZeroMassSubset):
            tractability(terms(lambda n: n, lambda n: 1), 1, count)


def scan(indices, T, mu, exact=None, tail_window=None, growth_margin=None, **opts):
    """:func:`tractability` of the generic step of T and mu over the
    classes of the range ``indices``; ``exact``, ``tail_window`` and
    ``growth_margin`` are options of the reference alone (the scan's
    window and margin are constants of :mod:`avgsat.trend`)."""
    return tractability(terms(T, mu), indices.start, len(indices), **opts)


def list_tractability(T, mu, classes, eps=1e-12, cap=1e6, growth_margin=1.0,
                      exact=False, tail_window=10):
    """The scan as it was before it streamed: every partial in a list.
    The reference for :func:`tractability`; returns (partials, verdict)."""
    zero = Fraction(0) if exact else 0.0
    num = den = zero
    partials = []
    for _, items in classes:
        for x in items:
            w = mu(x)
            if not exact:
                w = float(w)
            num += T(x) * w
            den += w
        if den == 0:
            raise ZeroMassSubset("class prefix has zero mass")
        partials.append(num / den)
    if not partials:
        raise ZeroMassSubset("no classes supplied")

    window = min(tail_window, len(partials) - 1)
    leveled = window >= 1
    for i in range(len(partials) - window, len(partials)):
        prev, cur = partials[i - 1], partials[i]
        scale = max(abs(cur), abs(prev))
        if scale != 0 and abs(cur - prev) / scale >= eps:
            leveled = False
            break
    if len(partials) == 1:
        leveled = True
    if leveled and partials[-1] <= cap:
        return partials, Verdict.CONVERGENT

    monotone = all(b >= a for a, b in zip(partials, partials[1:]))
    early = partials[max(0, len(partials) // 1000 - 1)]
    if monotone and (partials[-1] > cap or partials[-1] - early > growth_margin):
        return partials, Verdict.DIVERGENT_TREND
    return partials, Verdict.INCONCLUSIVE


# `exact` is the reference's arithmetic; the scan takes its own from the
# weights, Fraction ones (and the sums of int ones) exact
HARMONIC = dict(T=lambda n: n, mu=lambda n: 1.0 / (n * n))
GEOMETRIC = dict(T=lambda n: 2 ** n, mu=lambda n: Fraction(1, 4 ** n), exact=True)
NAN_AT_5 = dict(T=lambda n: math.nan if n == 5 else n, mu=lambda n: 1.0)
# flat after prefix 20: the last 10 increments vanish, the 11th does not
FLAT_AFTER_20 = dict(T=lambda n: n, mu=lambda n: 1.0 if n <= 20 else 0.0)
# partials 0, 2, 3.5, then 4 - 1.5/k: the growth from the 0.1% prefix
# (prefix 2 of 2000) is about 2, from prefix 1 about 4, from prefix 3
# about 0.5
STEPS = dict(T=lambda n: {1: 0, 2: 4, 3: 6.5}.get(n, 4), mu=lambda n: 1.0)

# budgets at the edges of the 0.1% prefix (count // 1000) and of the
# 10-step tail window
STREAM_CASES = {
    **{f"harmonic-{b}": (HARMONIC, range(1, b + 1))
       for b in (1, 2, 10, 11, 12, 999, 1000, 1001, 1999, 2000, 20000)},
    "geometric": (GEOMETRIC, range(0, 61)),
    "constant": (dict(T=lambda n: 5, mu=lambda n: Fraction(1, n), exact=True),
                 range(1, 61)),
    # int weights: exact sums, float partials
    "int-weights": (dict(T=lambda n: n % 7, mu=lambda n: n % 3 + 1), range(1, 2001)),
    # Fraction weights that no float holds: harmonic, exactly
    "fraction-weights": (dict(HARMONIC, mu=lambda n: Fraction(1, n * n), exact=True),
                         range(1, 301)),
    "not-monotone": (dict(T=lambda n: n % 3, mu=lambda n: 1.0), range(1, 3001)),
    "leveled-above-cap": (dict(GEOMETRIC, cap=1), range(0, 61)),
    "window-beyond-count": (dict(GEOMETRIC, tail_window=100), range(0, 61)),
    "window-zero": (dict(HARMONIC, tail_window=0), range(1, 1001)),
    "loose-eps": (dict(HARMONIC, eps=1e-3), range(1, 5001)),
    "nan-inside": (NAN_AT_5, range(1, 21)),
    "nan-first": (NAN_AT_5, range(5, 21)),
    "nan-only": (NAN_AT_5, range(5, 6)),
    "flat-tail-10": (FLAT_AFTER_20, range(1, 31)),
    "flat-tail-9": (FLAT_AFTER_20, range(1, 30)),
    "early-margin-1": (STEPS, range(1, 2001)),
    "early-margin-3": (dict(STEPS, growth_margin=3), range(1, 2001)),
    # the 0.1% prefix 10 is also a checkpoint
    "early-is-mark": (HARMONIC, range(1, 10_001)),
    # the checkpoint 1000 lies past tail = 995
    "mark-in-tail": (HARMONIC, range(1, 1006)),
    # tail = 1: every step ends a segment
    "window-is-count": (dict(HARMONIC, tail_window=2000), range(1, 2001)),
}


def same(a, b):
    return a == b or (a != a and b != b)   # NaN matches NaN


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_tractability_matches_list_scan(case, monkeypatch):
    kw, indices = STREAM_CASES[case]
    for name in ("tail_window", "growth_margin"):
        if name in kw:
            monkeypatch.setattr(trend, name.upper(), kw[name])
    res = scan(indices, **kw)
    partials, verdict = list_tractability(classes=((n, (n,)) for n in indices), **kw)
    assert res.verdict is verdict
    marks = [10 ** j for j in range(7) if 10 ** j < len(indices)] + [len(indices)]
    assert list(res.checkpoints) == marks
    for k, v in res.checkpoints.items():
        assert same(v, partials[k - 1]) and type(v) is type(partials[k - 1])
    assert same(res.final, partials[-1])


def spy_step(seen):
    """A step that puts each class the scan passes it into ``seen`` (by
    ``seen.extend``) and reads every partial as 1.0."""
    def step(xs, num, den, prev, monotone):
        seen.extend(xs)
        return num, den, 1.0, monotone
    return step


def test_tractability_iterates_its_input_once():
    # the scan passes its step the classes start + i, each once and in
    # order, of the type of start: a float start counts in floats
    for start in (1.0, 0.5, -3.0, 1, 0, -3):
        seen = []
        res = tractability(spy_step(seen), start, 2000)
        assert seen == [start + i for i in range(2000)]
        assert {type(x) for x in seen} == {type(start)}
        assert res.verdict is Verdict.CONVERGENT
    # each float is the one before plus 1.0, exact up to 2^53
    seen = []
    tractability(spy_step(seen), 2.0 ** 53 - 2, 3)
    assert seen == [2 ** 53 - 2, 2 ** 53 - 1, 2 ** 53]


def test_tractability_zero_mass_prefix_errors():
    mu = lambda n: 0.0 if n == 1 else 1.0
    with pytest.raises(ZeroMassSubset):
        list_tractability(lambda n: n, mu, ((n, (n,)) for n in range(1, 10)))
    # whatever the type of the zero weight
    for zero in (0.0, 0, Fraction(0)):
        with pytest.raises(ZeroMassSubset):
            scan(range(1, 10), lambda n: n, lambda n: zero if n == 1 else 1 + zero)


def test_tractability_sums_int_weights_exactly():
    # past a first weight of 2^60, a float sum drops every later weight
    # of 1; the scan's int sums do not, and each partial is their
    # correctly rounded quotient
    kw = dict(T=lambda n: n, mu=lambda n: 2 ** 60 if n == 1 else 1)
    res = scan(range(1, 101), **kw)
    partials, verdict = list_tractability(classes=((n, (n,)) for n in range(1, 101)),
                                          exact=True, **kw)
    assert res.verdict is verdict
    for k, v in res.checkpoints.items():
        assert type(v) is float and v == float(partials[k - 1])
    floats, _ = list_tractability(classes=((n, (n,)) for n in range(1, 101)), **kw)
    assert floats[-1] != res.final


def test_measure_still_names_the_trend_scan():
    from avgsat import errors, trend
    from avgsat.measure import ZeroMassSubset, tractability
    assert tractability is trend.tractability
    assert ZeroMassSubset is errors.ZeroMassSubset
    assert issubclass(ZeroMassSubset, measure.MeasureError)
    with pytest.raises(AttributeError):
        measure.no_such_name


def test_tractability_memory_does_not_grow_with_the_scan():
    # the list of 200,000 partials and their floats peaked at about 8 MB
    scan(range(1, 11), **HARMONIC)   # warm up lazy state
    tracemalloc.start()
    try:
        res = scan(range(1, 200_001), **HARMONIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.verdict is Verdict.DIVERGENT_TREND
    assert peak < 100_000


# --- reweighting and the transfer properties ------------------------------

@pytest.fixture(scope="module")
def combined(std, sentence_space):
    return sentence_space(enumerate_formulas(std, 2, max_tokens=8))


def test_nu_from_H_characteristic(combined):
    sp = combined
    mu = uniform_over_model_classes(sp)
    nu = nu_from_H(sp, lambda n: 1 if n == 2 else 0, DOUBLE, mu)
    support = {x for x, w in nu.items() if w}
    assert support <= set(sp.class_items(2))
    assert ref_mass(nu, sp.items) == 1


def test_nu_from_H_identity(combined):
    sp = combined
    mu = uniform_over_model_classes(sp)
    nu = nu_from_H(sp, lambda n: 1, lambda k: 1, mu)
    assert all(nu.get(x, 0) == mu.get(x, 0) for x in sp.items)


def test_nu_from_H_zero_mass(combined):
    sp = combined
    mu = uniform_over_model_classes(sp)
    with pytest.raises(ZeroMass):
        nu_from_H(sp, lambda n: 0, DOUBLE, mu)


def test_property_2_2_holds(combined):
    sp = combined
    mu = uniform_over_model_classes(sp)
    res = check_property_2_2(sp, SAT_TIME, DOUBLE, mu,
                             extra_H=[("ones", lambda n: 1)])
    assert all(r.passed for r in res.oclass.values())
    assert all(h.ok for h in res.h_rows)
    assert res.biconditional_ok


def test_property_2_2_broken_class_is_witnessed(combined):
    sp = combined
    mu = uniform_over_model_classes(sp)
    T = lambda x: SAT_TIME(x) * (4 if x[0] == 2 else 1)
    res = check_property_2_2(sp, T, DOUBLE, mu)
    assert not res.oclass[2].passed
    assert res.oclass[1].passed
    chi2 = next(h for h in res.h_rows if h.label == "chi_2")
    assert not chi2.ok
    assert res.biconditional_ok


def test_property_2_2_equality_case():
    sp = key_space((1, 3, "a"), (1, 3, "b"))
    mu = uniform_on(sp)
    F = lambda k: k * k
    T = lambda x: 9  # exactly F(f) everywhere
    res = check_property_2_2(sp, T, F, mu)
    assert res.oclass[1].lhs == res.oclass[1].rhs
    row = next(h for h in res.h_rows if h.label == "chi_1")
    assert row.lhs == row.rhs
    assert res.biconditional_ok


def test_property_2_3_sat(combined):
    sp = combined
    mu = uniform_over_model_classes(sp, per_class=True)
    res = check_property_2_3(sp, SAT_TIME, DOUBLE, mu, lambda n: Fraction(1, n * n))
    assert res.ok
    assert res.bound == Fraction(5, 4)
    assert res.expectation == Fraction(143, 128)


def test_property_2_3_characteristic_reduces_to_membership(combined):
    sp = combined
    mu = uniform_over_model_classes(sp, per_class=True)
    res = check_property_2_3(sp, SAT_TIME, DOUBLE, mu, lambda n: 1 if n == 1 else 0)
    assert res.bound == 1
    member = oclass_member(sp, SAT_TIME, DOUBLE, mu)[1]
    assert res.expectation == member.lhs <= 1


def test_property_2_3_shannon_power_weights():
    space, mu = analytic.shannon_space([3, 4])
    res = check_property_2_3(space, engines.tabulate, lambda k: k ** 3, mu,
                             lambda n: Fraction(1, n * n))
    assert res.ok
    assert res.bound == Fraction(1, 9) + Fraction(1, 16)


def test_property_2_3_preconditions(combined):
    sp = combined
    # global weights give each of the two classes mass 1/2
    mu_global = uniform_over_model_classes(sp)
    with pytest.raises(PreconditionFailed, match="normalized once per class"):
        check_property_2_3(sp, SAT_TIME, DOUBLE, mu_global, lambda n: 1)
    mu = uniform_over_model_classes(sp, per_class=True)
    # twice the per-class weights: every membership row still passes
    doubled = {x: 2 * w for x, w in mu.items()}
    assert all(r.passed for r in oclass_member(sp, SAT_TIME, DOUBLE, doubled).values())
    with pytest.raises(PreconditionFailed, match="normalized once per class"):
        check_property_2_3(sp, SAT_TIME, DOUBLE, doubled, lambda n: 1)
    broken = lambda x: SAT_TIME(x) * 100
    with pytest.raises(PreconditionFailed, match="membership fails"):
        check_property_2_3(sp, broken, DOUBLE, mu, lambda n: 1)


# --- Markov tail -----------------------------------------------------------

def test_markov_hundredfold(space2):
    mu = uniform_over_model_classes(space2)
    res = markov_tail(SAT_TIME, mu, space2.items, 100)
    assert res.mean == avg_time(SAT_TIME, mu, space2.items)
    assert res.bound == Fraction(1, 100)
    assert res.empirical <= Fraction(1, 100)
    assert res.ok


def test_markov_threshold_below_minimum():
    sp = toy_space([3, 5])
    mu = uniform_on(sp)
    # mean 4, threshold 2
    res = markov_tail(ALPHA, mu, sp.items, Fraction(1, 2))
    assert res.empirical == 1
    assert res.bound == 2


def test_markov_tight_constant():
    sp = toy_space([4, 7])
    mu = uniform_on(sp)
    res = markov_tail(lambda x: 6, mu, sp.items, 1)
    assert res.empirical == 1 == res.bound
    # a multiplier or a mean of 0 puts the threshold at 0
    with pytest.raises(ValueError, match="threshold must be positive"):
        markov_tail(lambda x: 6, mu, sp.items, 0)
    with pytest.raises(ValueError, match="threshold must be positive"):
        markov_tail(lambda x: 0, mu, sp.items, 1)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=8),
       st.fractions(min_value=Fraction(1, 4), max_value=60, max_denominator=12))
def test_markov_always_holds(pairs, multiplier):
    sp = key_space(*((0, 1, i) for i in range(len(pairs))))
    mu = weights_proportional(sp, lambda x: Fraction(pairs[x[2]][1]))
    T = lambda x: pairs[x[2]][0]
    if not any(time for time, _ in pairs):
        with pytest.raises(ValueError, match="threshold must be positive"):
            markov_tail(T, mu, sp.items, multiplier)
        return
    res = markov_tail(T, mu, sp.items, multiplier)
    assert res.bound == 1 / multiplier
    assert res.empirical <= res.bound


# --- distribution constructors ---------------------------------------------

def test_uniform_over_model_classes_equal_masses(space2):
    mu = uniform_over_model_classes(space2)
    groups = {}
    for x in space2.items:
        groups.setdefault(x[2], []).append(x)
    assert len(groups) == 16
    masses = {k: ref_mass(mu, v) for k, v in groups.items()}
    assert set(masses.values()) == {Fraction(1, 16)}
    validate(mu, space2)


def test_uniform_over_model_classes_uncovered(std):
    shallow = measure.formula_space(std, [2], 5)
    with pytest.raises(ClassUncovered):
        uniform_over_model_classes(shallow)
    # an empty space is refused, not weighed as a space of no classes
    for per_class in (False, True):
        with pytest.raises(ClassUncovered, match="empty space"):
            uniform_over_model_classes(InputSpace({}), per_class)


def test_covering_space_depth_cap(std, monkeypatch):
    monkeypatch.setattr(measure, "COVER_DEPTH_CAP", 5)
    with pytest.raises(ClassUncovered, match="within 5 tokens"):
        measure.covering_space(std, [2])


NOT_XOR = tables.from_text("¬ 1 10\n⊕ 2 0110\n")


def test_covering_space_refuses_an_affine_table_at_once():
    # every unary function is affine: NOT and XOR cover all four at n = 1
    assert len(measure.covering_space(NOT_XOR, [1]).classes[1]) == 6
    for n in (2, 3):
        start = time.perf_counter()
        with pytest.raises(ClassUncovered, match=f"affine, so at most {2 ** (n + 1)} "):
            measure.covering_space(NOT_XOR, [n])
        assert time.perf_counter() - start < 1


def _value(f, bits):
    """Truth bits f at argument values ``bits``, the first the most significant."""
    r = 0
    for b in bits:
        r = r << 1 | b
    return f >> r & 1


def _below(x, y):
    return all(u <= v for u, v in zip(x, y))


# each of Post's maximal clones by its definition over argument tuples
BRUTE_CLONES = {
    "0-preserving": lambda a, f, rows: _value(f, (0,) * a) == 0,
    "1-preserving": lambda a, f, rows: _value(f, (1,) * a) == 1,
    "monotone": lambda a, f, rows: all(_value(f, x) <= _value(f, y)
                                       for x in rows for y in rows if _below(x, y)),
    "self-dual": lambda a, f, rows: all(_value(f, tuple(1 - b for b in x)) == 1 - _value(f, x)
                                        for x in rows),
    # a constant XOR the arguments that a mask keeps
    "affine": lambda a, f, rows: any(
        all(_value(f, x) == (c + sum(b for b, keep in zip(x, mask) if keep)) % 2
            for x in rows)
        for c in (0, 1) for mask in product((0, 1), repeat=a)),
}


@pytest.mark.parametrize("name", list(BRUTE_CLONES))
def test_post_clone_predicates_match_their_definitions(name):
    # for every truth function of arity 0 to 3
    has = dict(measure._POST_CLONES)[name]
    for a in range(4):
        rows = list(product((0, 1), repeat=a))
        members = [f for f in range(1 << (1 << a)) if BRUTE_CLONES[name](a, f, rows)]
        assert [f for f in range(1 << (1 << a)) if has(a, f)] == members
    # the clone sizes at arity 3; 20 monotone functions is Dedekind's number
    assert len(members) == {"0-preserving": 128, "1-preserving": 128, "monotone": 20,
                            "self-dual": 16, "affine": 16}[name]


def test_covering_space_complete_table_still_meets_the_cap():
    # NAND is complete, so no clone refuses it; 24 tokens miss 6 classes
    nand = tables.from_text("⊼ 2 1110\n")
    with pytest.raises(ClassUncovered, match="only 250 of 256 model classes within 24"):
        measure.covering_space(nand, [3])


def test_uniform_within_min_layers(std, space1, expanded1):
    # over blocks (1, f, model set), each the sentences of one size and
    # model set, against the layers of the sentences themselves
    sp = layer_blocks(space1, 1)
    mu = uniform_within_min_layers(sp, 1)
    validate(mu, sp)
    from avgsat.formula import model_set, size_f, stratify_min_layers
    block = lambda x: (1, size_f(x), model_set(x, 1).bits)
    layers = stratify_min_layers([Formula(x[-1], std) for x in expanded1.items], 1)
    masses = {}
    for layer in layers:
        for x in layer:
            masses[block(x)] = masses.get(block(x), 0) + Fraction(1, len(layers) * len(layer))
    assert mu == masses


def test_power_law_length(expanded1):
    mu = power_law_length(expanded1, 2)
    validate(mu, expanded1)
    a, b = expanded1.items[0], expanded1.items[-1]
    lhs = mu[a] * a[1] ** 2
    rhs = mu[b] * b[1] ** 2
    assert lhs == rhs  # proportionality


def test_distribution_validation(space1):
    with pytest.raises(ValueError, match="sum to exactly 1"):
        validate({space1.items[0]: Fraction(1, 2)}, space1)
    two_classes = toy_space([1, 2])
    validate({(1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)}, two_classes)
    # mass 1 on each class is mass 2 in all
    with pytest.raises(ValueError, match="sum to exactly 1"):
        validate({(1, 1): Fraction(1), (2, 2): Fraction(1)}, two_classes)
    with pytest.raises(ValueError, match="negative weight"):
        validate({(1, 1): Fraction(2), (2, 2): Fraction(-1)}, two_classes)


def test_input_space_validation():
    with pytest.raises(ValueError, match="size of .* must be >= 1, got 0"):
        InputSpace({(1, 0, 0): 1})
    with pytest.raises(ValueError, match="count of .* must be >= 1, got 0"):
        InputSpace({(1, 1, 0): 0})
    assert InputSpace({(1, 1, 0): 3}).total([(1, 1, 0)]) == 3


def test_everything_is_exact(space1):
    mu = uniform_over_model_classes(space1)
    report = oclass_member(space1, SAT_TIME, DOUBLE, mu)
    assert isinstance(report[1].lhs, Fraction)
    assert isinstance(avg_time(SAT_TIME, mu, space1.items), Fraction)
    assert all(type(w) is Fraction for w in mu.values())


# --- exact sums against naive per-item references --------------------------
#
# The library forms its sums as integers per denominator, and the
# property checks read theirs per class; these references add one
# Fraction per item, exactly as the definitions read.

def ref_mass(mu, items):
    return sum((Fraction(mu.get(x, 0)) for x in items), Fraction(0))


def ref_avg_time(T, mu, items):
    items = list(items)
    num = sum((Fraction(T(x)) * mu.get(x, 0) for x in items), Fraction(0))
    return num / ref_mass(mu, items)


def ref_oclass(space, T, F, mu):
    rows = {}
    for n in space.attained_classes():
        items = space.class_items(n)
        rhs = ref_mass(mu, items)
        if rhs:
            rows[n] = (sum((Fraction(T(x)) * mu.get(x, 0) / Fraction(F(x[1]))
                            for x in items), Fraction(0)), rhs)
    return rows


def ref_nu(space, H, F, mu, mode):
    raw = {}
    for x in space.items:
        w = Fraction(H(x[0])) / Fraction(F(x[1])) * mu.get(x, 0)
        if w:
            raw[x] = w
    if mode is HMode.DOMINATED:
        return raw
    total = sum(raw.values(), Fraction(0))
    return {x: w / total for x, w in raw.items()}


def ref_expect(space, T, weights):
    return sum((Fraction(T(x)) * weights.get(x, 0) for x in space.items), Fraction(0))


def ref_per_class(space, mu):
    """mu scaled to mass 1 on each class of positive mass."""
    masses = {n: ref_mass(mu, space.class_items(n)) for n in space.attained_classes()}
    return {x: w / masses[x[0]] for x, w in mu.items() if w}


def assert_sums_match(space, T, F, mu, Hs):
    """Every exact sum of the library equals its naive reference."""
    items = space.items
    assert measure.sums(mu, items)[0] == ref_mass(mu, items)
    for n in space.attained_classes():
        assert measure.sums(mu, space.class_items(n))[0] == ref_mass(mu, space.class_items(n))
    if ref_mass(mu, items):
        assert avg_time(T, mu, items) == ref_avg_time(T, mu, items)
    expected = ref_oclass(space, T, F, mu)
    report = oclass_member(space, T, F, mu)
    assert list(report) == sorted(report)
    assert {n: (r.lhs, r.rhs) for n, r in report.items()} == expected
    for H in Hs:
        assert nu_from_H(space, H, F, mu, HMode.DOMINATED) == \
            ref_nu(space, H, F, mu, HMode.DOMINATED)
        if sum(ref_nu(space, H, F, mu, HMode.DOMINATED).values()) == 0:
            with pytest.raises(ZeroMass):
                nu_from_H(space, H, F, mu, HMode.EQUALITY)
        else:
            assert nu_from_H(space, H, F, mu, HMode.EQUALITY) == \
                ref_nu(space, H, F, mu, HMode.EQUALITY)
    labelled = [(f"H{i}", H) for i, H in enumerate(Hs)]
    res22 = check_property_2_2(space, T, F, mu, extra_H=labelled)
    refs = {f"chi_{n}": (lambda n: lambda k: 1 if k == n else 0)(n) for n in expected}
    refs.update(labelled)
    for row in res22.h_rows:
        nu = ref_nu(space, refs[row.label], F, mu, HMode.EQUALITY)
        assert row.lhs == ref_expect(space, T, nu)
        assert row.rhs == ref_expect(space, lambda x: F(x[1]), nu)
    # property 2.3 reads weights normalized per class, and refuses
    # others even where every membership row passes
    per_class = ref_per_class(space, mu)
    doubled = {x: 2 * w for x, w in per_class.items()}
    if not all(lhs <= rhs for lhs, rhs in ref_oclass(space, T, F, per_class).values()):
        for H in Hs:
            with pytest.raises(PreconditionFailed):
                check_property_2_3(space, T, F, per_class, H)
        return
    if doubled:
        with pytest.raises(PreconditionFailed, match="normalized once per class"):
            check_property_2_3(space, T, F, doubled, Hs[0])
    for H in Hs:
        res23 = check_property_2_3(space, T, F, per_class, H)
        nu = ref_nu(space, H, F, per_class, HMode.DOMINATED)
        assert res23.expectation == ref_expect(space, T, nu)
        assert res23.dominated_mass == sum(nu.values(), Fraction(0))
        assert res23.bound == sum((Fraction(H(n)) for n in space.attained_classes()),
                                  Fraction(0))


def test_exact_sums_match_references_on_sentences(space1, space2):
    Hs = [lambda n: 1, lambda n: Fraction(1, n * n), lambda n: 0]
    for n, sp in ((1, space1), (2, space2)):
        mu = uniform_over_model_classes(sp)
        assert_sums_match(sp, SAT_TIME, DOUBLE, mu, Hs)
        c = moments.moment_oclass_constant(3)
        assert_sums_match(sp, lambda x: SAT_TIME(x) ** 3, lambda k: c * k ** 3, mu, Hs)
        a = 100 * avg_time(SAT_TIME, mu, sp.items)
        tail = ref_mass(mu, [x for x in sp.items if SAT_TIME(x) >= a])
        assert markov_tail(SAT_TIME, mu, sp.items, 100).empirical == tail


_times = st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                   st.fractions(min_value=0, max_value=1000, max_denominator=97),
                   st.floats(min_value=0, max_value=1000, allow_nan=False))
_weights = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=0, max_value=5, max_denominator=60))


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=0, max_value=2),
                          _times, _weights),
                min_size=1, max_size=12),
       st.integers(min_value=2, max_value=3),
       st.lists(st.fractions(min_value=0, max_value=3, max_denominator=9),
                min_size=3, max_size=3))
def test_exact_sums_match_references_on_toy_spaces(rows, m, h_values):
    # key (alpha, f, row index) for each row (f, alpha, time, weight)
    keys = [(row[1], row[0], i) for i, row in enumerate(rows)]
    sp = key_space(*keys)
    times = {x: row[2] for x, row in zip(keys, rows)}
    T = times.__getitem__
    # index 0 has no entry at all: a missing weight reads as zero
    mu = {x: row[3] for x, row in zip(keys, rows) if x[2]}
    c = moments.moment_oclass_constant(m)
    assert_sums_match(sp, T, lambda k: c * k ** m, mu,
                      [lambda n: 1, lambda n: h_values[n]])
    if ref_mass(mu, sp.items):
        mean = ref_avg_time(T, mu, sp.items)
        for multiplier in (Fraction(1, 2), 1, 3):
            if not mean:
                with pytest.raises(ValueError, match="threshold must be positive"):
                    markov_tail(T, mu, sp.items, multiplier)
                continue
            tail = ref_mass(mu, [x for x in sp.items if times[x] >= multiplier * mean])
            res = markov_tail(T, mu, sp.items, multiplier)
            assert res.mean == mean
            assert res.empirical == tail / ref_mass(mu, sp.items)
    raw = {x: row[3] for x, row in zip(keys, rows)}
    total = sum(raw.values(), Fraction(0))
    if total:
        assert weights_proportional(sp, raw.__getitem__) == \
            {x: w / total for x, w in raw.items() if w}


def test_bad_F_and_negative_H_still_raise():
    a, b, c = (1, 2, "a"), (1, 8, "b"), (2, 1, "c")
    sp = key_space(a, b, c)
    # mass 1 on class 1, and none on class 2
    mu = {a: Fraction(1, 2), b: Fraction(1, 2)}
    # F(2) < 1 in a class of positive mass; class 2 has no mass and is skipped
    with pytest.raises(ValueError, match=r"F\(2\) = 1/2 < 1"):
        oclass_member(sp, lambda x: 1, lambda k: Fraction(k, 4), mu)
    with pytest.raises(ValueError, match="negative weight"):
        nu_from_H(sp, lambda n: -1, lambda k: k, mu, HMode.DOMINATED)
    # a negative H on massless items only yields zero weights there
    nu = nu_from_H(sp, lambda n: -1 if n == 2 else 1, lambda k: k, mu)
    assert set(nu) == {a, b}
    # the checks sum per class: a negative H on the positive-mass class 1
    # raises in both, and one on the massless class 2 does not
    T, F = lambda x: 1, lambda k: k
    for H in (lambda n: -1, lambda n: -1 if n == 1 else 1):
        with pytest.raises(ValueError, match="negative weight"):
            check_property_2_2(sp, T, F, mu, extra_H=[("negative", H)])
        with pytest.raises(ValueError, match="negative weight"):
            check_property_2_3(sp, T, F, mu, H)
    # twice the weights pass membership (lhs 5/8, rhs 2) but have mass 2
    with pytest.raises(PreconditionFailed, match="normalized once per class"):
        check_property_2_3(sp, T, F, {a: Fraction(1), b: Fraction(1)}, lambda n: 1)
    H = lambda n: -1 if n == 2 else 1
    # an H that is zero on every class has no reweighting: its row is dropped
    res = check_property_2_2(sp, T, F, mu, extra_H=[("massless", H), ("zero", lambda n: 0)])
    assert [(r.label, r.lhs, r.rhs) for r in res.h_rows] == \
        [("chi_1", 1, Fraction(16, 5)), ("massless", 1, Fraction(16, 5))]
    # sum of H/F * mu over class 1: 1/2 * (1/2 + 1/8); the bound is H(1) + H(2)
    assert check_property_2_3(sp, T, F, mu, H) == \
        Prop23Result(0, Fraction(5, 16), Fraction(5, 16), False)


@pytest.mark.parametrize("F", [DOUBLE, lambda k: Fraction(k ** 3, 3)], ids=["2k", "k^3/3"])
def test_nu_from_H_matches_plain_fraction_weights_on_combined_keys(std, F):
    # the key space property-2-2 checks, over the classes n = 1, 2: the
    # reweighting the checks are tested against gives every weight as a
    # Fraction, exactly as the reference does
    sp = measure.covering_space(std, [1, 2])
    mu = uniform_over_model_classes(sp)
    Hs = [lambda n: 1 if n == 1 else 0, lambda n: 1 if n == 2 else 0, lambda n: 1,
          lambda n: n, lambda n: Fraction(1, n * n)]
    for H in Hs:
        for mode in HMode:
            got = nu_from_H(sp, H, F, mu, mode)
            assert got == ref_nu(sp, H, F, mu, mode)
            assert all(type(w) is Fraction for w in got.values())
