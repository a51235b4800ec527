import pytest

from avgsat import engines, tables
from avgsat.formula import (ConnectiveTable, Formula, compact_model_set,
                            enumerate_formulas, evaluate, model_set, parse_rpn,
                            size_f, var_count_alpha)


def test_rewrite_examples(std):
    assert engines.rewrite_cost(parse_rpn("p0", std).key()) == 16
    x = parse_rpn("p0 p1 ∨", std)
    assert engines.rewrite_cost(x.key()) == size_f(x) == 56


def test_rewrite_minimum(std):
    for x in enumerate_formulas(std, 2, max_tokens=4):
        assert engines.rewrite_cost(x.key()) >= 8


def test_tabulate_examples(std):
    assert engines.tabulate(parse_rpn("p0", std).key()) == 2 * 16
    assert engines.tabulate(parse_rpn("p0 p1 ∨", std).key()) == 4 * 56


def test_tabulate_is_power_of_two_times_rewrite(std):
    for x in enumerate_formulas(std, 2, max_tokens=6):
        key = x.key()
        assert engines.tabulate(key) == (1 << var_count_alpha(x)) * engines.rewrite_cost(key)


def test_min_n():
    assert engines.min_n((1, 16, 0b10)) == 1
    assert engines.min_n((2, 16, 0)) == 4
    assert engines.min_n((3, 16, 0xFF)) == 0


def test_sat_scan_examples(std):
    assert engines.sat_scan(parse_rpn("p0 p1 ∨", std).key()) == 56 * 2
    contra = parse_rpn("p0 p0 ¬ ∧", std)
    assert engines.sat_scan(contra.key()) == size_f(contra) * 3 == 72 * 3


def test_sat_scan_versus_tabulate(std):
    for x in enumerate_formulas(std, 2, max_tokens=6):
        key = x.key()
        sat, tab = engines.sat_scan(key), engines.tabulate(key)
        if key[2] == 0:
            # unsatisfiable: every assignment was tried, plus the read
            assert sat == tab + size_f(x)
        else:
            assert sat <= tab


def _compacted_clone(x):
    """Independent first-appearance renaming, bypassing the kernel path."""
    mapping = {}
    remapped = []
    for c in x.codes:
        if c >= 0:
            mapping.setdefault(c, len(mapping))
            remapped.append(mapping[c])
        else:
            remapped.append(c)
    return Formula(tuple(remapped), x.table), len(mapping)


def _first_model(x, value=1):
    """The first assignment of x over its own variables, numbered by first
    appearance, at which x takes ``value``, or 2^alpha: one evaluate per
    assignment."""
    clone, n = _compacted_clone(x)
    return next((m for m in range(1 << n) if evaluate(clone, m, n) == value), 1 << n)


def test_witness_is_minimal(std):
    for x in enumerate_formulas(std, 3, max_tokens=5):
        assert engines.min_n(x.key()) == _first_model(x)


def test_negated_standard(std):
    x = parse_rpn("p0 p1 ∧", std)
    nx = engines.negated(x)
    assert nx.codes == x.codes + (-1,)
    assert model_set(nx, 2) == model_set(x, 2).complement()


def test_negated_via_nand(all_binary):
    x = parse_rpn("p0 p1 ∧", all_binary)
    nx = engines.negated(x)
    assert len(nx.codes) == 2 * len(x.codes) + 1
    assert model_set(nx, 2) == model_set(x, 2).complement()


def test_negated_complement_on_enumeration(std):
    for x in enumerate_formulas(std, 2, max_tokens=5, alpha=2):
        nx = engines.negated(x)
        assert compact_model_set(nx) == compact_model_set(x).complement()
        # the negation's scan stops at the first assignment x rejects
        assert engines.sat_scan(nx.key()) == size_f(nx) * (_first_model(x, 0) + 1)


def test_no_negation():
    monotone = tables.from_text("∧ 2 0001\n∨ 2 0111\n")
    x = parse_rpn("p0 p1 ∧", monotone)
    with pytest.raises(engines.NoNegation):
        engines.negated(x)


def test_costs_are_exact_integers(std):
    for x in enumerate_formulas(std, 2, max_tokens=5):
        key = x.key()
        for time in (engines.rewrite_cost(key), engines.tabulate(key), engines.sat_scan(key)):
            assert isinstance(time, int)


def test_witness_is_minimal_four_vars(std):
    # sentences using all four variables (seven tokens: four leaves,
    # three binary connectives)
    checked = 0
    for x in enumerate_formulas(std, 4, max_tokens=7, alpha=4):
        key = x.key()
        assert key[0] == 4
        assert engines.min_n(key) == _first_model(x)
        checked += 1
    assert checked == 960


CONST_TABLE = tables.from_text("¬ 1 10\nM 3 00010111\n⊤ 0 1\n")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_costs_on_a_key_are_the_costs_on_its_sentences(std, n):
    # a key (alpha, f, class) carries all that the cost models read; each
    # cost is checked here against the sentence, its first model against
    # one evaluate per assignment
    for x in (*enumerate_formulas(std, n, max_tokens=6),
              *enumerate_formulas(CONST_TABLE, n, max_tokens=6)):
        key = x.key()
        assert key == (var_count_alpha(x), size_f(x), compact_model_set(x).bits)
        first = _first_model(x)
        assert engines.min_n(key) == first
        assert engines.sat_scan(key) == size_f(x) * (first + 1)
        assert engines.tabulate(key) == (1 << var_count_alpha(x)) * size_f(x)
        assert engines.rewrite_cost(key) == size_f(x)


@pytest.mark.parametrize("table", ["standard", "nand", "nor-only"])
def test_negated_key_is_the_key_of_the_negation(table):
    tab = {"standard": ConnectiveTable.standard(),
           "nand": tables.from_text("⊼ 2 1110\n"),
           "nor-only": tables.from_text("⊽ 2 1000\n")}[table]
    for x in enumerate_formulas(tab, 3, max_tokens=7):
        assert engines.negated_keys({x.key(): 5}, tab) == {engines.negated(x).key(): 5}
    monotone = tables.from_text("∧ 2 0001\n∨ 2 0111\n")
    with pytest.raises(engines.NoNegation):
        engines.negated_keys({(1, 16, 2): 1}, monotone)
