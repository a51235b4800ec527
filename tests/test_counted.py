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
"""

from fractions import Fraction
from math import factorial

import pytest

from avgsat import engines, measure
from avgsat.commands import exact
from avgsat.formula import (ConnectiveTable, compact_model_set,
                            enumerate_formulas, model_set, size_f,
                            stratify_min_layers, var_count_alpha)
from avgsat.measure import HMode, InputSpace

SAT_TIME = lambda x: engines.sat_scan(x).time_units
TAB_TIME = lambda x: engines.tabulate(x).time_units
DOUBLE = lambda k: 2 * k
CUBE = lambda k: k ** 3
HS = [lambda n: 1, lambda n: Fraction(1, n * n), lambda n: 1 if n == 2 else 0]

TABLES = {
    "standard": ConnectiveTable.standard(),
    # no unary NOT: negation duplicates the operand under NAND
    "nand": ConnectiveTable.from_text("⊼ 2 1110\n"),
}


def key_of(x):
    """The key of a sentence: alpha, size, and class over its own variables."""
    return var_count_alpha(x), size_f(x), compact_model_set(x).bits


def block_of(n):
    """The block of a sentence over p0..p(n-1): alpha, size, model set."""
    return lambda x: (n, size_f(x), model_set(x, n).bits)


def renamings(item):
    """Sentences per count of a key: its alpha! renamings."""
    return factorial(item[0])


def scan_over(n):
    """sat_scan's time with assignments over p0..p(n-1) as they are,
    not renumbered: a cost that reads the model set a block holds."""
    return lambda x: SAT_TIME(x if isinstance(x, tuple) else block_of(n)(x))


class Twin:
    """A counted space, its expansion, and the sentences of each item."""

    def __init__(self, counted: InputSpace, expanded: InputSpace, key=key_of,
                 per_count=renamings):
        self.counted, self.expanded, self.per_count = counted, expanded, per_count
        self.groups: dict[tuple, list] = {}
        for x in expanded.items:
            self.groups.setdefault(key(x), []).append(x)
        self._times: dict = {}

    def lift(self, mu: measure.Distribution) -> dict:
        """The expanded weights summed per item."""
        lifted = {k: measure._dot((mu.of(x),) for x in xs) for k, xs in self.groups.items()}
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


def nonzero(mu: measure.Distribution) -> dict:
    return {x: w for x, w in mu.weights.items() if w}


def expand(table: ConnectiveTable, n: int, depth: int) -> InputSpace:
    return InputSpace.from_formulas(enumerate_formulas(table, n, max_tokens=depth, alpha=n))


def assert_keys_and_counts(twin: Twin):
    c = twin.counted
    assert {k: twin.per_count(k) * c.count[k] for k in c.items} == \
        {k: len(xs) for k, xs in twin.groups.items()}
    assert sum(twin.per_count(k) * c.count[k] for k in c.items) == len(twin.expanded)
    assert all(c.f[k] == k[1] and c.alpha[k] == k[0] for k in c.items)


def assert_same_checks(twin: Twin, mu_c, mu_e, costs):
    """Both spaces give identical weights per item and identical checks,
    for each (T, F) pair in ``costs``."""
    c, e = twin.counted, twin.expanded
    assert nonzero(mu_c) == twin.lift(mu_e)
    for T, F in costs:
        T = twin.times(T)
        assert measure.oclass_member(c, T, F, mu_c) == measure.oclass_member(e, T, F, mu_e)
        avg = measure.avg_time(T, mu_c, c.items)
        assert avg == measure.avg_time(T, mu_e, e.items)
        for k in sorted(set(c.f.values()))[:3]:
            assert measure.relative_avg(c, T, mu_c, k) == measure.relative_avg(e, T, mu_e, k)
        for a in (avg, 100 * avg):
            assert measure.markov_tail(T, mu_c, c.items, a) == \
                measure.markov_tail(T, mu_e, e.items, a)
        for H in HS:
            for mode in HMode:
                try:
                    nu_e = measure.nu_from_H(e, H, F, mu_e, mode)
                except measure.ZeroMass:
                    with pytest.raises(measure.ZeroMass):
                        measure.nu_from_H(c, H, F, mu_c, mode)
                    continue
                assert nonzero(measure.nu_from_H(c, H, F, mu_c, mode)) == twin.lift(nu_e)


def stratified(expanded: InputSpace, n: int) -> measure.Distribution:
    """Equal mass per layer of ``stratify_min_layers`` over the sentences,
    spread equally over each layer's members."""
    layers = stratify_min_layers(expanded.items, n)
    return measure.Distribution({x: Fraction(1, len(layers) * len(layer))
                                 for layer in layers for x in layer})


def block_twin(twin: Twin, n: int) -> Twin:
    return Twin(measure.layer_blocks(twin.counted, n), twin.expanded, key=block_of(n),
                per_count=lambda block: 1)


@pytest.fixture(scope="module", params=sorted(TABLES))
def table(request):
    return TABLES[request.param]


@pytest.fixture(scope="module")
def twins(table):
    """The covering twin for n = 1 and n = 2."""
    out = {}
    for n in (1, 2):
        counted = measure.covering_space(table, n)
        # the covering depth: below it a space has fewer sentences
        depth = next(d for d in range(1, 25)
                     if measure.formula_space(table, n, d).count == counted.count)
        out[n] = Twin(counted, expand(table, n, depth))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_covering_space_counts_its_expansion(twins, n):
    assert_keys_and_counts(twins[n])


# tables for the counting oracle: all_binary sums over supersets for
# constants and projections too, and loops over mask pairs for XOR and
# XNOR; the others add a constant leaf and a ternary connective
ORACLE_TABLES = {
    **TABLES,
    "all_binary": ConnectiveTable.all_binary(),
    "constant": ConnectiveTable.from_text("¬ 1 10\n∧ 2 0001\n⊤ 0 1\n"),
    "majority": ConnectiveTable.from_text("¬ 1 10\nM 3 00010111\n"),
}
# all_binary has no sentence of 6 tokens, and 1.6e6 of 7 at n = 3
ORACLE_DEPTH = {"all_binary": 5}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
def test_formula_space_counts_its_expansion(name, n):
    table, depth = ORACLE_TABLES[name], ORACLE_DEPTH.get(name, 7)
    counted = measure.formula_space(table, n, depth)
    assert_keys_and_counts(Twin(counted, expand(table, n, depth)))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_formula_space_counts_its_expansion_over_4_variables(name):
    # 65,536 masks: every connective loops over nonzero entries
    table = TABLES[name]
    assert_keys_and_counts(Twin(measure.formula_space(table, 4, 7),
                                expand(table, 4, 7)))


def test_formula_space_counts_its_expansion_over_5_variables():
    # 2^32 masks; the 360 sentences M(M(a, b, c), d, e) and the like are
    # the only ones with 5 variables in 7 tokens
    table = ORACLE_TABLES["majority"]
    twin = Twin(measure.formula_space(table, 5, 7), expand(table, 5, 7))
    assert len(twin.expanded.items) == 360
    assert_keys_and_counts(twin)


def test_spaces_refuse_out_of_reach_sizes():
    std = TABLES["standard"]
    for build in (lambda: measure.covering_space(std, 4),
                  lambda: measure.formula_space(std, 11, 3),
                  lambda: measure.formula_space(std, 0, 3)):
        with pytest.raises(measure.MeasureError):
            build()


@pytest.mark.parametrize("n", [1, 2])
def test_counted_layers_match_expansion(twins, n):
    twin = block_twin(twins[n], n)
    assert_keys_and_counts(twin)
    runs = measure.min_layer_runs(twin.counted, n)
    from_runs = [sorted(layer) for repeats, layer in runs for _ in range(repeats)]
    layers = stratify_min_layers(twin.expanded.items, n)
    assert from_runs == [sorted(map(block_of(n), layer)) for layer in layers]


@pytest.mark.parametrize("n", [1, 2])
def test_distributions_and_checks_match_expansion(twins, n):
    twin = twins[n]
    c, e = twin.counted, twin.expanded
    some_size = sorted(set(c.f.values()))[len(set(c.f.values())) // 2]
    pairs = [
        (measure.uniform_on(c), measure.uniform_on(e)),
        (measure.uniform_on(c, c.f_class_items(some_size)),
         measure.uniform_on(e, twin.subset(c.f_class_items(some_size)))),
        (measure.weights_proportional(c, lambda x: SAT_TIME(x) % 5),
         measure.weights_proportional(e, lambda x: SAT_TIME(x) % 5)),
        (measure.power_law_length(c, 2), measure.power_law_length(e, 2)),
        (measure.uniform_over_model_classes(c, n),
         measure.uniform_over_model_classes(e, n)),
    ]
    for mu_c, mu_e in pairs:
        assert_same_checks(twin, mu_c, mu_e, [(SAT_TIME, DOUBLE)])
    # the tab-oclass pairing, over blocks, against the sentences' own
    # layers; a block's sentences share any cost that reads alpha, f and
    # the model set over n variables
    blocks = block_twin(twin, n)
    assert_same_checks(blocks, measure.uniform_within_min_layers(blocks.counted, n),
                       stratified(e, n), [(scan_over(n), DOUBLE), (TAB_TIME, CUBE)])


def test_min_layer_masses_match_expansion_over_3_variables():
    # 14,208 sentences in 929 (f, class, model set) keys: a key's
    # sentences are not consecutive in their group's (size, rendering)
    # order here, so only whole blocks get exact layer masses
    table = TABLES["standard"]
    twin = Twin(measure.formula_space(table, 3, 8), expand(table, 3, 8))
    assert len(twin.expanded) == 14208
    blocks = block_twin(twin, 3)
    assert_keys_and_counts(blocks)
    mu = measure.uniform_within_min_layers(blocks.counted, 3)
    assert nonzero(mu) == blocks.lift(stratified(twin.expanded, 3))


@pytest.mark.parametrize("n", [1, 2])
def test_negated_space_matches_expansion(table, twins, n):
    twin = twins[n]
    assert all(engines.negated_key(key_of(x), table) == key_of(engines.negated(x))
               for x in twin.expanded.items)
    co = Twin(InputSpace.from_keys({engines.negated_key(k, table): c
                                    for k, c in twin.counted.count.items()}),
              InputSpace.from_formulas(engines.negated(x) for x in twin.expanded.items))
    assert_keys_and_counts(co)
    mu_c = measure.uniform_over_model_classes(co.counted, n)
    mu_e = measure.uniform_over_model_classes(co.expanded, n)
    assert_same_checks(co, mu_c, mu_e, [(SAT_TIME, DOUBLE)])


def test_combined_space_properties_match_expansion(table, twins):
    counted = exact._combined_space(table, [1, 2], None)
    expanded = InputSpace.from_formulas(
        [x for n in (1, 2) for x in twins[n].expanded.items])
    twin = Twin(counted, expanded)
    assert_keys_and_counts(twin)
    extra = [("ones", lambda n: 1), ("linear", lambda n: n)]
    broken = lambda x: SAT_TIME(x) * (4 if (x[0] if isinstance(x, tuple)
                                             else var_count_alpha(x)) == 2 else 1)
    for per_class in (False, True):
        mu_c = measure.uniform_over_model_classes(counted, per_class=per_class)
        mu_e = measure.uniform_over_model_classes(expanded, per_class=per_class)
        assert nonzero(mu_c) == twin.lift(mu_e)
        for T in (SAT_TIME, broken):
            T = twin.times(T)
            assert measure.check_property_2_2(counted, T, DOUBLE, mu_c, extra) == \
                measure.check_property_2_2(expanded, T, DOUBLE, mu_e, extra)
    for H in HS:
        T = twin.times(SAT_TIME)
        assert measure.check_property_2_3(counted, T, DOUBLE, mu_c, H) == \
            measure.check_property_2_3(expanded, T, DOUBLE, mu_e, H)
