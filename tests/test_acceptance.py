"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail
line (run with ``pytest -s`` to see them).  Every tolerance is pinned
here; exact comparisons use Fraction throughout.
"""

import csv
import time
from fractions import Fraction

from avgsat import analytic, cli, engines, measure, moments
from avgsat.commands.markov_tail import markov_tail
from avgsat.commands.property_2_2 import check_property_2_2
from avgsat.commands.property_2_3 import check_property_2_3
from avgsat.formula import ConnectiveTable, enumerate_formulas
from avgsat.trend import Verdict, terms
from negation import negated_keys

SAT_TIME = lambda x: engines.sat_scan(x[:3])
DOUBLE = lambda k: 2 * k


def _report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_expected_min_bound():
    start = time.perf_counter()
    ok = True
    for n in range(5):
        em = analytic.expected_min_plus_one(n)
        ok = ok and em.brute is not None
        ok = ok and em.brute == em.closed == 2 - Fraction(1, 2 ** (2 ** n))
        ok = ok and em.closed < 2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(1, "expected first witness below 2 (n=0..4, brute force)", ok,
            f"({elapsed:.2f}s)")


def test_criterion_02_sat_linear_membership():
    start = time.perf_counter()
    table = ConnectiveTable.standard()
    ok = True
    for n in (1, 2):
        space = measure.covering_space(table, [n])
        mu = measure.uniform_over_model_classes(space)
        report = measure.oclass_member(space, SAT_TIME, DOUBLE, mu)
        ok = ok and report[n].passed
        ok = ok and report[n].lhs == (2 - Fraction(1, 2 ** (2 ** n))) / 2
        co = measure.InputSpace(negated_keys(space.count, table))
        mu_co = measure.uniform_over_model_classes(co)
        ok = ok and measure.oclass_member(co, SAT_TIME, DOUBLE, mu_co)[n].passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(2, "scanner in O(2*size), classes covered, with co-problem", ok,
            f"({elapsed:.2f}s)")


def test_criterion_03_moment_bounds(space1, space2):
    tol = Fraction(1, 10 ** 12)
    ok = True
    s1 = moments.geometric_moment_sum(1, tol)
    ok = ok and abs(s1.partial - 2) <= tol
    s2 = moments.geometric_moment_sum(2, tol)
    ok = ok and abs(s2.partial - 6) <= Fraction(1, 10 ** 9)
    for m in range(2, 9):
        s = moments.geometric_moment_sum(m, tol)
        ok = ok and s.tail_bound < tol
        ok = ok and s.upper <= moments.moment_oclass_constant(m)
    for n, sp in ((1, space1), (2, space2)):
        mu = measure.uniform_over_model_classes(sp)
        for m in (2, 3):
            c = moments.moment_oclass_constant(m)
            T = lambda x: SAT_TIME(x) ** m
            ok = ok and measure.oclass_member(sp, T, lambda k: c * k ** m, mu)[n].passed
    _report(3, "moment sums within 2.5*m^(m+1), m-th power membership", ok)


def test_criterion_04_constant_comparison():
    cc = analytic.wilf_comparison()
    ok = cc.computed == 189 and cc.reference == 197
    ok = ok and cc.rel_gap < Fraction(5, 100)
    _report(4, "189 from the moment estimate vs reference 197 (<5%)", ok,
            f"(gap {float(cc.rel_gap) * 100:.2f}%)")


def test_criterion_05_tabulator_chain_audit(tmp_path):
    out = tmp_path / "tab.csv"
    code = cli.main(["--audit", "tab-oclass", "--model", "shannon",
                     "--n-list", "1,2,3,4", "--out", str(out)])
    with open(out, encoding="utf-8") as fh:
        rows = {r["n"]: r for r in csv.DictReader(fh)}
    ok = code == 0
    ok = ok and rows["1"]["pass"] == "expected_fail"
    ok = ok and rows["2"]["pass"] == "expected_fail"
    ok = ok and rows["3"]["pass"] == "pass" and rows["4"]["pass"] == "pass"
    for n in "1234":
        got = Fraction(int(rows[n]["lhs_num"]), int(rows[n]["lhs_den"]))
        ok = ok and got == analytic.tabulator_class_bound(int(n)).lhs
    ok = ok and Fraction(int(rows["1"]["lhs_num"]), int(rows["1"]["lhs_den"])) == Fraction(5, 4)
    ok = ok and Fraction(int(rows["2"]["lhs_num"]), int(rows["2"]["lhs_den"])) == Fraction(289, 288)
    _report(5, "cubic tabulator bound: pass at n=3,4; audited fail at n=1,2", ok)


def test_criterion_06_counting_example(tmp_path):
    ok = all(analytic.gamma_count(N) == analytic.catalan_binomial(N)
             for N in range(16))
    ok = ok and analytic.sentence_count(1) == 48
    for census in analytic.censuses(3):
        ok = ok and census.count == analytic.sentence_count(census.N)
    # the partial sums of the ratio series as counting writes them
    out = tmp_path / "counting.csv"
    ok = ok and cli.main(["counting", "--n-max", "40", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        sums = [Fraction(int(r["partial_num"]), int(r["partial_den"]))
                for r in csv.DictReader(fh)]
    ok = ok and len(sums) == 41 and any(s > 1000 for s in sums)
    _report(6, "shape counts, census of 48 at N=1, divergent ratio series", ok)


def test_criterion_07_tractability_examples():
    res = measure.tractability(terms(lambda n: n, lambda n: 1.0 / (n * n)), 1, 10 ** 6)
    growth = res.final - res.checkpoints[1000]
    ok = res.verdict is Verdict.DIVERGENT_TREND and growth > 1
    geo = measure.tractability(terms(lambda n: 2 ** n, lambda n: Fraction(1, 4 ** n)), 0, 61)
    ok = ok and geo.verdict is Verdict.CONVERGENT
    ok = ok and abs(geo.final - Fraction(3, 2)) < Fraction(1, 10 ** 12)
    _report(7, "harmonic case grows unboundedly; geometric settles at 3/2", ok,
            f"(growth {growth:.2f})")


def test_criterion_08_markov_tail(space2):
    mu = measure.uniform_over_model_classes(space2)
    res = markov_tail(SAT_TIME, mu, space2.items, 100)
    ok = res.ok and res.bound == Fraction(1, 100)
    ok = ok and res.empirical <= Fraction(1, 100)
    _report(8, "hundredfold-average runs occur with frequency <= 1%", ok,
            f"(empirical {res.empirical})")


def test_criterion_09_reweighting_properties(std, sentence_space):
    space = sentence_space(enumerate_formulas(std, 2, max_tokens=8))
    mu = measure.uniform_over_model_classes(space)
    clean = check_property_2_2(space, SAT_TIME, DOUBLE, mu)
    ok = all(r.passed for r in clean.oclass.values()) and all(h.ok for h in clean.h_rows)
    ok = ok and clean.biconditional_ok
    broken_T = lambda x: SAT_TIME(x) * (4 if x[0] == 2 else 1)
    broken = check_property_2_2(space, broken_T, DOUBLE, mu)
    ok = ok and not broken.oclass[2].passed
    chi2 = next(h for h in broken.h_rows if h.label == "chi_2")
    ok = ok and not chi2.ok and broken.biconditional_ok
    mu_pc = measure.uniform_over_model_classes(space, per_class=True)
    p23 = check_property_2_3(space, SAT_TIME, DOUBLE, mu_pc, lambda n: Fraction(1, n * n))
    ok = ok and p23.ok and p23.bound == Fraction(5, 4)
    _report(9, "reweighting equivalence, witnessed failure, summable transfer", ok)


VERBS = [
    ["expected-min", "--n", "2", "--upto"],
    ["sat-oclass", "--n", "1"],
    ["--audit", "tab-oclass", "--model", "shannon", "--n-list", "1,2,3,4"],
    ["tab-oclass", "--model", "enumerated", "--n", "1", "--max-tokens", "5"],
    ["moments", "--m-list", "1,2", "--n-list", "1"],
    ["counting", "--n-max", "4", "--p", "2"],
    ["tractability", "--case", "geometric"],
    ["montecarlo", "--n", "1", "--max-tokens", "6", "--samples", "3000"],
    ["explore-min", "--target-tokens", "7", "--samples", "500"],
    ["property-2-2", "--n-list", "1"],
    ["property-2-3", "--model", "shannon"],
    ["markov-tail", "--n", "1"],
]


def test_criterion_10_determinism_and_sampling(tmp_path):
    ok = True
    for i, argv in enumerate(VERBS):
        a = tmp_path / f"run{i}a.csv"
        b = tmp_path / f"run{i}b.csv"
        cli.main([*argv, "--seed", "3", "--out", str(a)])
        cli.main([*argv, "--seed", "3", "--out", str(b)])
        ok = ok and a.read_bytes() == b.read_bytes()
    out = tmp_path / "mc.csv"
    code = cli.main(["montecarlo", "--n", "2", "--max-tokens", "8",
                     "--samples", "100000", "--exact-check", "--out", str(out)])
    with open(out, encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    z = float(row["z"])
    ok = ok and code == 0 and abs(z) <= 4
    _report(10, "byte-identical reruns; sampling within 4 SE of exact", ok,
            f"(z {z:+.2f})")
