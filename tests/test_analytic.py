import math
from fractions import Fraction

import pytest

from avgsat import engines, measure, moments, tables
from avgsat.analytic import (ChainStep, catalan_binomial,
                             census, censuses, expected_min_plus_one,
                             gamma_count, is_canonical_sentence,
                             ratio_partial_sums, sentence_count, shannon_lengths,
                             shannon_space, tabulator_class_bound,
                             totals_and_ratio, wilf_comparison)
from avgsat.formula import enumerate_formulas, leaf_sequence, var_count_alpha
from avgsat.moments import geometric_moment_sum, moment_oclass_constant
from avgsat.weighting import validate


# --- shape counts -----------------------------------------------------

def test_gamma_small_values():
    assert [gamma_count(N) for N in range(4)] == [1, 1, 2, 5]


def test_gamma_matches_binomial_closed_form():
    for N in range(31):
        assert gamma_count(N) == catalan_binomial(N)


def test_gamma_recursion_identity():
    for N in range(30):
        conv = sum(gamma_count(i) * gamma_count(N - i) for i in range(N + 1))
        assert gamma_count(N + 1) == conv


def test_gamma_counts_tree_shapes():
    # over a single variable and a single binary connective, the number
    # of sentences with exactly N connectives is the number of shapes
    single = tables.from_text("∧ 2 0001\n")
    for N in range(9):
        got = sum(1 for _ in enumerate_formulas(single, 1, exact_connectives=N))
        assert got == gamma_count(N)


# --- sentence censuses --------------------------------------------------

def test_sentence_count_values():
    assert [sentence_count(N) for N in range(4)] == [1, 48, 3584, 307200]


def test_census_matches_closed_form():
    for N in range(4):
        assert census(N).count == sentence_count(N)


CENSUS_TABLES = {
    "all-binary": tables.all_binary(),
    "all-unary": tables.all_of_arity(1),
    "nand-only": tables.from_text("⊼ 2 1110\n"),
    "majority-only": tables.from_text("M 3 00010111\n"),
}


def test_census_matches_filtered_enumeration():
    # dual route: filter the raw enumeration by the canonical-labeling
    # predicate and compare counts and tabulation totals with the
    # closed form, for every table in CENSUS_TABLES
    for name, table in CENSUS_TABLES.items():
        for N in range(3):
            canonical = [x for x in enumerate_formulas(table, N + 1,
                                                       exact_connectives=N)
                         if is_canonical_sentence(x)]
            counted = census(N, table)
            assert len(canonical) == counted.count, (name, N)
            assert sum(1 << var_count_alpha(x) for x in canonical) == \
                counted.pow2_alpha_sum, (name, N)


@pytest.mark.parametrize("name", sorted(CENSUS_TABLES))
def test_censuses_from_one_table_match_census(name):
    # one completion table to the longest length serves every row; each
    # census(N) builds its own to exactly its length
    table = CENSUS_TABLES[name]
    assert censuses(12, table) == [census(N, table) for N in range(13)]
    assert censuses(0, table) == [census(0, table)] and censuses(-1, table) == []


def test_census_refuses_mixed_arities():
    with pytest.raises(ValueError):
        census(1, tables.all_up_to(2))
    with pytest.raises(ValueError):
        censuses(1, tables.all_up_to(2))


def test_census_totals_match_closed_forms():
    for N in range(4):
        counted = census(N)
        closed = totals_and_ratio(N, 0)
        assert counted.read_total == closed.read_total
        assert counted.tabulate_total == closed.tabulate_total


def test_is_canonical_sentence(all_binary):
    from avgsat.formula import parse_rpn
    assert is_canonical_sentence(parse_rpn("p0 p1 ∧", all_binary))
    assert is_canonical_sentence(parse_rpn("p1 p1 ∧", all_binary))
    assert not is_canonical_sentence(parse_rpn("p1 p0 ∧", all_binary))
    assert is_canonical_sentence(parse_rpn("p0 p0 p1 ∧ ∧", all_binary))
    assert not is_canonical_sentence(parse_rpn("p0 p1 p1 ∧ ∧", all_binary))


# --- totals and the cost-ratio series ------------------------------------

def test_totals_at_zero():
    t = totals_and_ratio(0, 2)
    assert (t.read_total, t.tabulate_total) == (1, 2)
    assert t.ratio == 2


def test_ratio_identity():
    for N in range(31):
        t = totals_and_ratio(N, 0)
        assert Fraction(t.tabulate_total, t.read_total) == t.ratio
        assert t.ratio == Fraction(3 ** (N + 1) - 1, 2 ** (N + 1) - 1)


def test_ratio_geometric_approximation():
    for N in (10, 20, 30):
        for p in (0, 2):
            exact = totals_and_ratio(N, p).ratio
            approx = Fraction(3, 2) ** (N + 1) / (2 * N + 1) ** p
            assert abs(exact / approx - 1) < Fraction(1, 10)


def test_ratio_partial_sums_diverge():
    sums = ratio_partial_sums(40, 2)
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert any(s > 1000 for s in sums)


# --- expected first witness ----------------------------------------------

def test_expected_min_examples():
    assert expected_min_plus_one(1).brute == Fraction(7, 4)
    assert expected_min_plus_one(0).brute == Fraction(3, 2)


def test_expected_min_brute_matches_closed():
    for n in range(5):
        em = expected_min_plus_one(n)
        assert em.brute == em.closed == 2 - Fraction(1, 2 ** (2 ** n))


def test_expected_min_below_two_and_increasing():
    values = [expected_min_plus_one(n).closed for n in range(8)]
    assert all(v < 2 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(expected_min_plus_one(n).nonempty_sum < 2 for n in range(8))


def test_expected_min_nonempty_sum():
    # dropping the empty set's 2^n + 1 term: 2 - (2^n + 2)/2^(2^n)
    for n in range(6):
        M = 1 << n
        assert expected_min_plus_one(n).nonempty_sum == 2 - Fraction(M + 2, 2 ** M)


# --- geometric moment sums -------------------------------------------------

def _fubini(m):
    """Ordered Bell numbers via the binomial recurrence."""
    a = [1]
    for n in range(1, m + 1):
        a.append(sum(math.comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a[m]


def test_moment_sum_matches_fubini_oracle():
    # the full series sums to twice the m-th ordered Bell number
    for m in range(1, 9):
        s = geometric_moment_sum(m)
        target = 2 * _fubini(m)
        assert abs(s.partial - target) <= s.tail_bound


def test_moment_sum_values():
    tol = Fraction(1, 10 ** 12)
    assert abs(geometric_moment_sum(1, tol).partial - 2) <= tol
    assert abs(geometric_moment_sum(2, tol).partial - 6) <= Fraction(1, 10 ** 9)
    assert abs(geometric_moment_sum(3, tol).partial - 26) <= tol


def test_moment_cutoff_estimate_is_the_exact_cutoff():
    # the float estimate that bounds moments' work, against the exact loop
    for t in (0, 1, 5, 12, 100, 1000, 10 ** 4):
        for m in [*range(1, 41), 50, 99, 100, 143, 200, 333, 499, 500]:
            exact, _ = moments._tail_cutoff(m, Fraction(1, 10 ** t))
            assert moments.moment_cutoff(m, t) == exact, (m, t)


def test_moment_sum_tail_verified_by_doubling():
    for m in (2, 5):
        s = geometric_moment_sum(m)
        double = s.cutoff * 2
        num = sum(i ** m << (double - i) for i in range(1, double + 1))
        refined = Fraction(num, 1 << double)
        assert abs(refined - s.partial) <= s.tail_bound


def test_moment_bound_holds():
    for m in range(2, 9):
        s = geometric_moment_sum(m)
        assert s.upper <= moment_oclass_constant(m)


def test_moment_constants():
    assert moment_oclass_constant(2) == 20
    assert moment_oclass_constant(3) == Fraction(405, 2)
    with pytest.raises(ValueError):
        moment_oclass_constant(1)


def test_moment_oclass_on_enumeration(space1, space2):
    for n, sp in ((1, space1), (2, space2)):
        mu = measure.uniform_over_model_classes(sp, n)
        for m in (2, 3):
            c = moment_oclass_constant(m)
            T = lambda x: engines.sat_scan(x) ** m
            report = measure.oclass_member(sp, T, lambda k: c * k ** m, mu)
            assert report.overall


# --- constant comparison ----------------------------------------------------

def test_wilf_comparison():
    cc = wilf_comparison()
    assert cc.computed == 3 ** 3 + 2 * 3 ** 4 == 189
    assert cc.reference == 197
    assert cc.rel_gap < Fraction(5, 100)


# --- shortest-code model -----------------------------------------------------

def test_shannon_model_slot_counts():
    for n in range(1, 5):
        assert sum(count for _, count in shannon_lengths(n)) == 2 ** (2 ** n)


def test_shannon_lengths_are_greedy_shortest():
    counts = shannon_lengths(2)
    assert [length for length, _ in counts] == sorted({length for length, _ in counts})
    assert dict(counts) == {1: 2, 2: 4, 3: 8, 4: 2}


def test_tabulator_bound_verdicts():
    outcomes = {n: tabulator_class_bound(n).passed for n in range(1, 5)}
    assert outcomes == {1: False, 2: False, 3: True, 4: True}


def test_tabulator_bound_exact_values():
    tb1 = tabulator_class_bound(1)
    assert tb1.lhs == Fraction(5, 4)
    tb2 = tabulator_class_bound(2)
    assert tb2.lhs == Fraction(289, 288)
    assert tb2.single_top_lhs < 1  # one top slot fewer squeaks through
    # the layer sum with a single top-length slot, over 2^(2^n) slots
    for n in (1, 2, 3):
        single = [(length, 1 if length == 2 ** n else count)
                  for length, count in shannon_lengths(n)]
        expected = Fraction(2 ** n, 2 ** (2 ** n)) * sum(
            Fraction(count, length * length) for length, count in single)
        assert tabulator_class_bound(n).single_top_lhs == expected


def test_tabulator_chain_reported():
    for n in (1, 3):
        tb = tabulator_class_bound(n)
        assert [isinstance(s, ChainStep) for s in tb.chain] == [True] * 3
        assert tb.chain[0].ok  # folding the top slots only grows the sum
        assert tb.chain[2].ok  # the coarse estimate equals the mass exactly
        assert tb.chain[2].lhs == 1
        # the middle estimate is what breaks at small n
        assert tb.chain[1].ok == (n >= 3)


def test_tabulator_bound_agrees_with_membership_machinery():
    # dual route: the closed-form layer sum must equal the generic
    # per-class membership sum over the counted keys
    for n in range(1, 11):
        space, mu = shannon_space([n])
        row = measure.oclass_member(space, engines.tabulate, lambda k: k ** 3, mu).row(n)
        tb = tabulator_class_bound(n)
        assert (row.lhs, row.rhs, row.passed) == (tb.lhs, tb.rhs, tb.passed)


def test_shannon_space_structure():
    space, mu = shannon_space([3, 4])
    # one key (n, code length) per length: 8 at n = 3 and 16 at n = 4
    assert len(space) == 24
    assert space.attained_classes() == [3, 4]
    validate(mu, space)
    for n in (3, 4):
        items = space.class_items(n)
        assert len(items) == 2 ** n
        assert space.total(items) == 2 ** (2 ** n)
        assert mu.mass(items) == 1
        assert all(engines.tabulate(it) == (1 << n) * it[1] for it in items)
