"""Counted spaces against their expansions.

``covering_space`` and ``formula_space`` hold keys (alpha, size f,
model class over the sentence's own variables), each counting the
canonical sentences of that key; every sentence is a canonical one
with its variables renamed, so a key stands for alpha! times its count
in sentences.  ``layer_blocks`` turns a key space into blocks (alpha,
f, model set over the space's n variables) that count sentences.
Every distribution constructor and every check must give on such a
space exactly the Fractions it gives on the expanded space: one item
per sentence, enumerated by ``enumerate_formulas`` to the same depth.
An expanded item is the sentence's key (from ``Formula.key``, which
evaluates the sentence, not the counting DP), or its block, followed
by its codes.
"""

import csv
import functools
import time
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import itemgetter

import pytest

from avgsat import _counting, analytic, cli, engines, measure, tables, weighting
from avgsat._counting import MAX_WORK, SentenceCounts, sentence_keys
from avgsat._kernel import alpha_count
from avgsat.commands.markov_tail import markov_tail
from avgsat.commands.property_2_2 import check_property_2_2
from avgsat.commands.property_2_3 import check_property_2_3
from avgsat.commands.tab_oclass import layer_blocks, uniform_within_min_layers
from avgsat.formula import (ConnectiveTable, Formula, enumerate_formulas, model_set, size_f,
                            stratify_min_layers)
from avgsat.errors import ZeroMass
from avgsat.measure import InputSpace
from avgsat.weighting import HMode
from oracle import negated_keys, point_counts, shapes, stirling2

# the costs read an expanded item's first three fields, its key or block
SAT_TIME = lambda x: engines.sat_scan(x[:3])
TAB_TIME = lambda x: engines.tabulate(x[:3])
DOUBLE = lambda k: 2 * k
CUBE = lambda k: k ** 3
HS = [lambda n: 1, lambda n: Fraction(1, n * n), lambda n: 1 if n == 2 else 0]

TABLES = {
    "standard": ConnectiveTable.standard(),
    # no unary NOT: negation duplicates the operand under NAND
    "nand": tables.from_text("⊼ 2 1110\n"),
}


def sentence_item(x):
    """A sentence as an expanded item: its key (alpha, size, class over
    its own variables), then its codes."""
    return (*x.key(), x.codes)


def block_item(n):
    """A sentence over p0..p(n-1) as an expanded item: its block (alpha,
    size, model set over the n variables), then its codes."""
    return lambda x: (n, size_f(x), model_set(x, n).bits, x.codes)


def items_space(items) -> InputSpace:
    """One input per item: each item is its own key."""
    return InputSpace(dict.fromkeys(items, 1))


def renamings(item):
    """Sentences per count of a key: its alpha! renamings."""
    return factorial(item[0])


class Twin:
    """A counted space, its expansion, and the sentences of each item."""

    def __init__(self, counted: InputSpace, expanded: InputSpace, key=itemgetter(0, 1, 2),
                 per_count=renamings):
        self.counted, self.expanded, self.per_count = counted, expanded, per_count
        self.groups: dict[tuple, list] = {}
        for x in expanded.items:
            self.groups.setdefault(key(x), []).append(x)
        self._times: dict = {}

    def lift(self, mu: dict) -> dict:
        """The expanded weights summed per item."""
        lifted = {k: measure.sums(mu, xs)[0] for k, xs in self.groups.items()}
        return {k: w for k, w in lifted.items() if w}

    def times(self, T) -> dict:
        """T on every item and every sentence, which must agree."""
        if T not in self._times:
            times = {k: T(k) for k in self.counted.items}
            for k, xs in self.groups.items():
                assert all(T(x) == times[k] for x in xs)
                times.update((x, times[k]) for x in xs)
            self._times[T] = times
        return self._times[T]

    def subset(self, items) -> list:
        """The sentences the given items stand for."""
        return [x for k in items for x in self.groups[k]]


def sizes(space: InputSpace) -> list[int]:
    return sorted({x[1] for x in space.items})


def of_size(space: InputSpace, k: int) -> list:
    return [x for x in space.items if x[1] == k]


def nonzero(mu: dict) -> dict:
    return {x: w for x, w in mu.items() if w}


def expand(table: ConnectiveTable, n: int, depth: int) -> InputSpace:
    return items_space([sentence_item(x)
                        for x in enumerate_formulas(table, n, max_tokens=depth, alpha=n)])


def assert_keys_and_counts(twin: Twin):
    c = twin.counted
    assert {k: twin.per_count(k) * c.count[k] for k in c.items} == \
        {k: len(xs) for k, xs in twin.groups.items()}
    assert sum(twin.per_count(k) * c.count[k] for k in c.items) == len(twin.expanded)


def assert_same_checks(twin: Twin, mu_c, mu_e, costs):
    """Both spaces give identical weights per item and identical checks,
    for each (T, F) pair in ``costs``."""
    c, e = twin.counted, twin.expanded
    assert nonzero(mu_c) == twin.lift(mu_e)
    for T, F in costs:
        T = twin.times(T).__getitem__
        assert measure.oclass_member(c, T, F, mu_c) == measure.oclass_member(e, T, F, mu_e)
        avg = measure.avg_time(T, mu_c, c.items)
        assert avg == measure.avg_time(T, mu_e, e.items)
        for k in sizes(c)[:3]:
            assert weighting.relative_avg(c, T, mu_c, k) == weighting.relative_avg(e, T, mu_e, k)
        for multiplier in (1, 100):
            assert markov_tail(T, mu_c, c.items, multiplier) == \
                markov_tail(T, mu_e, e.items, multiplier)
        for H in HS:
            for mode in HMode:
                try:
                    nu_e = weighting.nu_from_H(e, H, F, mu_e, mode)
                except ZeroMass:
                    with pytest.raises(ZeroMass):
                        weighting.nu_from_H(c, H, F, mu_c, mode)
                    continue
                assert nonzero(weighting.nu_from_H(c, H, F, mu_c, mode)) == twin.lift(nu_e)


def stratified(expanded: InputSpace, n: int, table: ConnectiveTable) -> dict:
    """Equal mass per layer of ``stratify_min_layers`` over the sentences,
    spread equally over each layer's members."""
    item_of = {x[-1]: x for x in expanded.items}
    layers = stratify_min_layers([Formula(codes, table) for codes in item_of], n)
    return {item_of[x.codes]: Fraction(1, len(layers) * len(layer))
            for layer in layers for x in layer}


def block_twin(twin: Twin, n: int, table: ConnectiveTable) -> Twin:
    """The blocks of a twin's counted space, and its sentences as blocks."""
    blocks = items_space([block_item(n)(Formula(x[-1], table)) for x in twin.expanded.items])
    return Twin(layer_blocks(twin.counted, n), blocks, per_count=lambda block: 1)


@pytest.fixture(scope="module", params=sorted(TABLES))
def table(request):
    return TABLES[request.param]


@pytest.fixture(scope="module")
def twins(table):
    """The covering twin for n = 1 and n = 2."""
    out = {}
    for n in (1, 2):
        counted = measure.covering_space(table, [n])
        # the covering depth: below it a space has fewer sentences, or none
        depth = next(d for d in range(1, 25) if alpha_count(table.arities, n, d)
                     and measure.formula_space(table, [n], d).count == counted.count)
        out[n] = Twin(counted, expand(table, n, depth))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_covering_space_counts_its_expansion(twins, n):
    assert_keys_and_counts(twins[n])


# tables for the counting oracle: the 16 binary connectives sum over
# supersets for constants and projections too, and loop over mask pairs
# for XOR and XNOR; the others add a constant leaf and a ternary
# connective
ORACLE_TABLES = {
    **TABLES,
    "all_binary": tables.all_of_arity(2),
    "constant": tables.from_text("¬ 1 10\n∧ 2 0001\n⊤ 0 1\n"),
    "majority": tables.from_text("¬ 1 10\nM 3 00010111\n"),
}
# all_binary has no sentence of 6 tokens, and 1.6e6 of 7 at n = 3
ORACLE_DEPTH = {"all_binary": 5}
# the covering tables of the counting oracle; each can negate, with a
# NOT or by a NAND or NOR of a duplicated operand
COVERING_TABLES = ["all_binary", "constant", "nand", "standard"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
def test_formula_space_counts_its_expansion(name, n):
    table, depth = ORACLE_TABLES[name], ORACLE_DEPTH.get(name, 7)
    counted = measure.formula_space(table, [n], depth)
    assert_keys_and_counts(Twin(counted, expand(table, n, depth)))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_formula_space_counts_its_expansion_over_4_variables(name):
    # 65,536 masks: every connective loops over nonzero entries
    table = TABLES[name]
    assert_keys_and_counts(Twin(measure.formula_space(table, [4], 7),
                                expand(table, 4, 7)))


def test_formula_space_counts_its_expansion_over_5_variables():
    # 2^32 masks; the 360 sentences M(M(a, b, c), d, e) and the like are
    # the only ones with 5 variables in 7 tokens
    table = ORACLE_TABLES["majority"]
    twin = Twin(measure.formula_space(table, [5], 7), expand(table, 5, 7))
    assert len(twin.expanded.items) == 360
    assert_keys_and_counts(twin)


class LoopingCounts(SentenceCounts):
    """The count with no superset sums: every connective loops over the
    entries of its children."""

    def __init__(self, *args):
        super().__init__(*args)
        self.families, self.summed = {}, set()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", COVERING_TABLES)
def test_superset_sums_count_what_entry_loops_count(monkeypatch, name, n):
    # a second oracle for the DP, past the depths an expansion reaches
    table = ORACLE_TABLES[name]
    assert SentenceCounts(n, table.arities, table.truth_bits, 7).families
    summed = sentence_keys(table, [n], 7)
    monkeypatch.setattr(_counting, "SentenceCounts", LoopingCounts)
    assert sentence_keys(table, [n], 7) == summed


# Two oracles at the depth the verdicts read: the n = 3 commands read
# the standard count to 22 tokens, where no expansion reaches.  Neither
# reads the superset sums or the normal-form loop; each holds the DP's
# table ``tab`` itself against a property its sentences must have.
DEEP_DEPTH = {"standard": 22, "all_binary": 9, "constant": 14, "majority": 12}


@functools.cache
def deep_count(name, n=3):
    """The count of table ``name`` over n variables to its deep depth."""
    table, depth = ORACLE_TABLES[name], DEEP_DEPTH[name]
    counts = SentenceCounts(n, table.arities, table.truth_bits, depth)
    for _ in range(depth):
        counts.extend()
    return counts


@pytest.mark.parametrize("name", sorted(DEEP_DEPTH))
def test_labelling_totals_are_shapes_times_stirling(name):
    # a canonical sentence over exactly n variables is a shape with its
    # l leaves labelled by a restricted growth string of n blocks, of
    # which there are S(l, n) (Stanley, EC1 1.9): at state (0, n) the
    # digit-l counts at t tokens, over all masks, are shapes * S(l, n)
    counts = deep_count(name)
    n, low = counts.n, (1 << counts.width) - 1
    for t, by_leaves in enumerate(shapes(counts.arities, DEEP_DEPTH[name])):
        totals = Counter()
        for p in counts.tab[t].get((0, n), {}).values():
            l = 0
            while p:
                totals[l] += p & low
                p, l = p >> counts.width, l + 1
        assert totals == Counter({l: c * stirling2(l, n) for l, c in by_leaves.items()}), t


@pytest.mark.parametrize("name", ["all_binary", "standard"])
def test_counts_are_invariant_under_duality(name):
    # both tables hold the dual of each connective, so swapping each
    # connective for its dual maps the sentences of a state onto
    # themselves; the dual of mask m is full ^ m', m' reversing the 2^n
    # bits of m (assignment a becomes its complement)
    counts = deep_count(name)
    bits = 1 << counts.n
    flip = [counts.full ^ int(f"{m:0{bits}b}"[::-1], 2) for m in range(counts.size)]
    for t, states in enumerate(counts.tab):
        for state, by_mask in states.items():
            assert all(by_mask.get(flip[m]) == p for m, p in by_mask.items()), (t, state)


def mask_totals(counts):
    """Per level of the count: state -> [(mask, sentences over all digits)]."""
    low = (1 << counts.width) - 1
    totals = []
    for states in counts.tab:
        level = {}
        for state, by_mask in states.items():
            level[state] = []
            for m, p in by_mask.items():
                total = 0
                while p:
                    total, p = total + (p & low), p >> counts.width
                level[state].append((m, total))
        totals.append(level)
    return totals


def assert_marginals(name, points):
    """The count's masks restricted to ``points`` are the marginals of
    ``point_counts`` there, at every state of every level."""
    counts = deep_count(name)
    expected = point_counts(ORACLE_TABLES[name], counts.n, points, DEEP_DEPTH[name])
    for t, level in enumerate(mask_totals(counts)):
        restricted = {}
        for state, entries in level.items():
            c = restricted[state] = [0] * (1 << len(points))
            for m, total in entries:
                c[sum((m >> p & 1) << i for i, p in enumerate(points))] += total
        assert restricted == expected[t], (points, t)


@pytest.mark.parametrize("name", sorted(DEEP_DEPTH))
def test_point_marginals_are_the_masks_at_each_point(name):
    # the sentences of each state true and false at one assignment, the
    # And/Or-tree literature's quantity (Lefmann and Savicky 1997), are
    # the count's masks restricted to that assignment's bit
    for point in range(1 << deep_count(name).n):
        assert_marginals(name, (point,))


@pytest.mark.parametrize("points", [(0, 7), (1, 2), (3, 5)],
                         ids=lambda points: ",".join(map(str, points)))
def test_two_point_marginals_are_the_masks_at_each_pair(points):
    # the sentences of each state by their truth values at two
    # assignments, which differ in every variable (0, 7) or in two (1, 2
    # and 3, 5): the count's masks restricted to those two bits
    assert_marginals("standard", points)


def classes_id(value):
    """A test id part: a table's name, or classes as ``1,2,3``."""
    return value if isinstance(value, str) else ",".join(map(str, value))


def assert_one_count_per_class(joint: InputSpace, ns, apart):
    """A space of the classes ns, read off one count, holds class by
    class the keys and counts of each class counted apart."""
    assert joint.attained_classes() == ns
    for n in ns:
        assert {x: joint.count[x] for x in joint.class_items(n)} == apart(n).count


@pytest.mark.parametrize("name,ns", [*((name, [1, 2, 3]) for name in sorted(ORACLE_TABLES)),
                                     ("standard", [1, 2, 3, 4])], ids=classes_id)
def test_one_count_holds_every_smaller_class(name, ns):
    table, depth = ORACLE_TABLES[name], ORACLE_DEPTH.get(name, 7)
    assert_one_count_per_class(measure.formula_space(table, ns, depth), ns,
                               lambda n: measure.formula_space(table, [n], depth))


@pytest.mark.parametrize("name,ns", [*((name, [1, 2]) for name in COVERING_TABLES),
                                     ("standard", [1, 2, 3])], ids=classes_id)
def test_one_covering_count_stops_each_class_at_its_own_depth(name, ns):
    # standard covers class 1 at 4 tokens, 2 at 8 and 3 at 22: the
    # smaller classes are read to their own depths, not the count's
    table = ORACLE_TABLES[name]
    assert_one_count_per_class(measure.covering_space(table, ns), ns,
                               lambda n: measure.covering_space(table, [n]))


def test_one_covering_count_refuses_a_class_short_at_the_cap():
    with pytest.raises(measure.ClassUncovered, match="only 250 of 256 model classes within 24"):
        measure.covering_space(TABLES["nand"], [1, 2, 3])


@pytest.mark.parametrize("argv, spaces", [
    ("moments --n-list 1,2,3", 1),
    ("property-2-2 --n-list 1,2", 1),
    # and one space of blocks per class
    ("tab-oclass --model enumerated --n-list 1,2 --max-tokens 9", 3),
], ids=["moments", "property-2-2", "tab-oclass"])
def test_a_request_over_several_classes_counts_once(tmp_path, monkeypatch, argv, spaces):
    built = Counter()
    for cls in (SentenceCounts, InputSpace):
        def init(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", init)
    assert cli.main([*argv.split(), "--out", str(tmp_path / "out.csv")]) == 0
    assert built == {"SentenceCounts": 1, "InputSpace": spaces}


def test_spaces_refuse_out_of_reach_sizes():
    # at once: covering spaces past n = 3, and sentence spaces past 10
    # variables, 200 tokens or the counting's estimated steps
    # (_counting.MAX_WORK)
    std = TABLES["standard"]
    for build in (lambda: measure.covering_space(std, [4]),
                  lambda: measure.formula_space(std, [11], 3),
                  lambda: measure.formula_space(std, [0], 3),
                  lambda: measure.formula_space(std, [2], 201),
                  *(lambda n=n, L=L: measure.formula_space(std, [n], L)
                    for n, L in [(4, 13), (5, 11), (3, 60), (1, 150)])):
        start = time.perf_counter()
        with pytest.raises(measure.MeasureError):
            build()
        assert time.perf_counter() - start < 1


# the natural-weighting trends' budgets: to 60 tokens at n <= 2, 40 at
# n = 3 and 12 at n = 4; and 10 at n = 5
@pytest.mark.parametrize("n, max_tokens", [(1, 60), (2, 60), (3, 40), (4, 12), (5, 10)])
def test_formula_space_work_admits_trend_budgets(n, max_tokens):
    std = TABLES["standard"]
    assert SentenceCounts(n, std.arities, std.truth_bits, max_tokens).work() <= MAX_WORK


@pytest.mark.parametrize("n", [1, 2])
def test_counted_layers_match_expansion(table, twins, n):
    twin = block_twin(twins[n], n, table)
    assert_keys_and_counts(twin)
    mu = uniform_within_min_layers(twin.counted, n)
    assert nonzero(mu) == twin.lift(stratified(twin.expanded, n, table))


@pytest.mark.parametrize("n", [1, 2])
def test_distributions_and_checks_match_expansion(table, twins, n):
    twin = twins[n]
    c, e = twin.counted, twin.expanded
    some_size = sizes(c)[len(sizes(c)) // 2]
    pairs = [
        (weighting.uniform_on(c), weighting.uniform_on(e)),
        (weighting.uniform_on(c, of_size(c, some_size)),
         weighting.uniform_on(e, twin.subset(of_size(c, some_size)))),
        (weighting.weights_proportional(c, lambda x: SAT_TIME(x) % 5),
         weighting.weights_proportional(e, lambda x: SAT_TIME(x) % 5)),
        (weighting.power_law_length(c, 2), weighting.power_law_length(e, 2)),
        (measure.uniform_over_model_classes(c), measure.uniform_over_model_classes(e)),
    ]
    for mu_c, mu_e in pairs:
        assert_same_checks(twin, mu_c, mu_e, [(SAT_TIME, DOUBLE)])
    # the tab-oclass pairing, over blocks, against the sentences' own
    # layers; a block's sentences share any cost that reads alpha, f and
    # the model set over n variables
    blocks = block_twin(twin, n, table)
    assert_same_checks(blocks, uniform_within_min_layers(blocks.counted, n),
                       stratified(blocks.expanded, n, table),
                       [(SAT_TIME, DOUBLE), (TAB_TIME, CUBE)])


def test_min_layer_masses_match_expansion_over_3_variables():
    # 14,208 sentences in 929 (f, class, model set) keys: a key's
    # sentences are not consecutive in their group's (size, rendering)
    # order here, so only whole blocks get exact layer masses
    table = TABLES["standard"]
    twin = Twin(measure.formula_space(table, [3], 8), expand(table, 3, 8))
    assert len(twin.expanded) == 14208
    blocks = block_twin(twin, 3, table)
    assert_keys_and_counts(blocks)
    mu = uniform_within_min_layers(blocks.counted, 3)
    assert nonzero(mu) == blocks.lift(stratified(blocks.expanded, 3, table))


@pytest.mark.parametrize("n", [1, 2])
def test_negated_space_matches_expansion(table, twins, n):
    twin = twins[n]
    negations = [engines.negated(Formula(x[-1], table)) for x in twin.expanded.items]
    assert all(negated_keys({x[:3]: 1}, table) == {nx.key(): 1}
               for x, nx in zip(twin.expanded.items, negations))
    co = Twin(InputSpace(negated_keys(twin.counted.count, table)),
              items_space([sentence_item(nx) for nx in negations]))
    assert_keys_and_counts(co)
    mu_c = measure.uniform_over_model_classes(co.counted)
    mu_e = measure.uniform_over_model_classes(co.expanded)
    assert_same_checks(co, mu_c, mu_e, [(SAT_TIME, DOUBLE)])


def _sat_oclass_rows(tmp_path, table, n):
    """The rows of ``sat-oclass`` over ``table`` at n, by check."""
    path = tmp_path / "table.txt"
    path.write_text(tables.to_text(table), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["sat-oclass", "--table", str(path), "--n", str(n), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        return {row["check"]: row for row in csv.DictReader(fh)}


def assert_sat_row_is_the_closed_form(sat, n):
    # sat_scan / (2f) is (min + 1) / 2 on every key of a class, so on any
    # covering space the sat row's lhs is half the expected first witness
    assert sat["n"] == str(n) and sat["pass"] == "pass"
    assert Fraction(int(sat["lhs_num"]), int(sat["lhs_den"])) == \
        analytic.expected_min_plus_one(n).closed / 2
    assert (sat["rhs_num"], sat["rhs_den"]) == ("1", "1")


@pytest.mark.parametrize("name,n", [*((name, n) for name in COVERING_TABLES for n in (1, 2)),
                                    ("standard", 3)])
def test_sat_oclass_rows_are_the_closed_form(tmp_path, name, n):
    # complementing permutes the classes, so the co row is the same row
    table = ORACLE_TABLES[name]
    assert table.negation_strategy() is not None
    rows = _sat_oclass_rows(tmp_path, table, n)
    assert_sat_row_is_the_closed_form(rows["sat"], n)
    assert {**rows["co"], "check": "sat"} == rows["sat"]


@pytest.mark.parametrize("n", [1, 2])
def test_table_that_cannot_negate_skips_the_co_row(tmp_path, n):
    # implication and falsum cover every class, yet no NOT, NAND or NOR
    # negates a sentence, so the co row is skipped and marked info
    table = tables.from_text("→ 2 1101\n⊥ 0 0\n")
    assert table.negation_strategy() is None
    rows = _sat_oclass_rows(tmp_path, table, n)
    assert list(rows) == ["sat", "co-skipped", "read-share"]
    assert_sat_row_is_the_closed_form(rows["sat"], n)
    assert list(rows["co-skipped"].values()) == \
        ["co-skipped", str(n), "0", "1", "0", "1", "0.0", "0.0", "info"]


@pytest.mark.parametrize("name,n", [*((name, n) for name in COVERING_TABLES for n in (1, 2)),
                                    ("standard", 3)])
def test_co_row_is_the_negated_space_row(tmp_path, name, n):
    # the command repeats the sat row; the negated sentences' own key
    # space, with its own weights, must give exactly the same row
    table = ORACLE_TABLES[name]
    co = _sat_oclass_rows(tmp_path, table, n)["co"]
    space = InputSpace(negated_keys(measure.covering_space(table, [n]).count, table))
    row = measure.oclass_member(space, engines.sat_scan, DOUBLE,
                                measure.uniform_over_model_classes(space))[n]
    assert [co[k] for k in ("n", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "pass")] == \
        [str(n), *map(str, row.lhs.as_integer_ratio()), *map(str, row.rhs.as_integer_ratio()),
         "pass" if row.passed else "fail"]


def test_combined_space_properties_match_expansion(table, twins):
    counted = measure.space(table, [1, 2], None)
    expanded = items_space([x for n in (1, 2) for x in twins[n].expanded.items])
    twin = Twin(counted, expanded)
    assert_keys_and_counts(twin)
    extra = [("ones", lambda n: 1), ("linear", lambda n: n)]
    broken = lambda x: SAT_TIME(x) * (4 if x[0] == 2 else 1)
    for per_class in (False, True):
        mu_c = measure.uniform_over_model_classes(counted, per_class=per_class)
        mu_e = measure.uniform_over_model_classes(expanded, per_class=per_class)
        assert nonzero(mu_c) == twin.lift(mu_e)
        for T in (SAT_TIME, broken):
            T = twin.times(T).__getitem__
            assert check_property_2_2(counted, T, DOUBLE, mu_c, extra) == \
                check_property_2_2(expanded, T, DOUBLE, mu_e, extra)
    for H in HS:
        T = twin.times(SAT_TIME).__getitem__
        assert check_property_2_3(counted, T, DOUBLE, mu_c, H) == \
            check_property_2_3(expanded, T, DOUBLE, mu_e, H)


def shannon_slots(ns):
    """The shortest-code model with one item (n, code length, slot index)
    per slot: the expansion of ``analytic.shannon_space``, with its
    per-class uniform distribution."""
    lengths = {n: [length for length, count in analytic.shannon_lengths(n)
                   for _ in range(count)] for n in ns}
    space = items_space([(n, length, idx) for n in ns
                         for idx, length in enumerate(lengths[n])])
    return space, {item: Fraction(1, 1 << (1 << item[0])) for item in space.items}


# the tabulation cost of a slot, written out: 2^n times its code length
SLOT_TIME = lambda item: 2 ** item[0] * item[1]


@pytest.mark.parametrize("ns", [[3], [4], [3, 4]], ids=["3", "4", "3,4"])
def test_shannon_keys_match_slot_expansion(ns):
    counted, mu = analytic.shannon_space(ns)
    expanded, mu_e = shannon_slots(ns)
    twin = Twin(counted, expanded, key=itemgetter(0, 1), per_count=lambda key: 1)
    assert_keys_and_counts(twin)
    assert nonzero(mu) == twin.lift(mu_e)
    T = engines.tabulate
    assert measure.oclass_member(counted, T, CUBE, mu) == \
        measure.oclass_member(expanded, SLOT_TIME, CUBE, mu_e)
    for e in range(4):
        H = lambda n: Fraction(1, n ** e)
        assert check_property_2_3(counted, T, CUBE, mu, H) == \
            check_property_2_3(expanded, SLOT_TIME, CUBE, mu_e, H)
