import pytest

from avgsat import engines
from avgsat.formula import (ConnectiveTable, Formula, ModelSet,
                            compact_model_set, enumerate_formulas, evaluate,
                            model_set, parse_rpn, sentence_key, size_f,
                            var_count_alpha)


def test_rewrite_examples(std):
    assert engines.rewrite_cost(parse_rpn("p0", std)).time_units == 16
    x = parse_rpn("p0 p1 ∨", std)
    run = engines.rewrite_cost(x)
    assert run.time_units == size_f(x) == 56
    assert run.payload == x


def test_rewrite_minimum(std):
    for x in enumerate_formulas(std, 2, max_tokens=4):
        assert engines.rewrite_cost(x).time_units >= 8


def test_tabulate_examples(std):
    assert engines.tabulate(parse_rpn("p0", std)).time_units == 2 * 16
    x = parse_rpn("p0 p1 ∨", std)
    run = engines.tabulate(x)
    assert run.time_units == 4 * 56
    assert set(run.payload.members()) == {1, 2, 3}


def test_tabulate_is_power_of_two_times_rewrite(std):
    for x in enumerate_formulas(std, 2, max_tokens=6):
        lhs = engines.tabulate(x).time_units
        rhs = (1 << var_count_alpha(x)) * engines.rewrite_cost(x).time_units
        assert lhs == rhs


def test_min_n():
    assert engines.min_n(ModelSet(1, 0b10)) == 1
    assert engines.min_n(ModelSet(2, 0)) == 4
    assert engines.min_n(ModelSet(3, 0xFF)) == 0


def test_sat_scan_examples(std):
    x = parse_rpn("p0 p1 ∨", std)
    run = engines.sat_scan(x)
    assert run.payload == 1
    assert run.time_units == 56 * 2
    contra = parse_rpn("p0 p0 ¬ ∧", std)
    run = engines.sat_scan(contra)
    assert run.payload is None
    assert run.time_units == size_f(contra) * 3 == 72 * 3


def test_sat_scan_versus_tabulate(std):
    for x in enumerate_formulas(std, 2, max_tokens=6):
        sat = engines.sat_scan(x)
        tab = engines.tabulate(x)
        if sat.payload is None:
            assert sat.time_units == tab.time_units + size_f(x)
        else:
            assert sat.time_units <= tab.time_units


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


def test_witness_is_minimal(std):
    for x in enumerate_formulas(std, 3, max_tokens=5):
        clone, n = _compacted_clone(x)
        witness = engines.sat_scan(x).payload
        if witness is None:
            assert all(evaluate(clone, m, n) == 0 for m in range(1 << n))
        else:
            assert evaluate(clone, witness, n) == 1
            assert all(evaluate(clone, m, n) == 0 for m in range(witness))


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
        assert engines.sat_scan(nx).time_units == size_f(nx) * (
            engines.min_n(compact_model_set(x).complement()) + 1)


def test_no_negation():
    monotone = ConnectiveTable.from_text("∧ 2 0001\n∨ 2 0111\n")
    x = parse_rpn("p0 p1 ∧", monotone)
    with pytest.raises(engines.NoNegation):
        engines.negated(x)


def test_costs_are_exact_integers(std):
    for x in enumerate_formulas(std, 2, max_tokens=5):
        for run in (engines.rewrite_cost(x), engines.tabulate(x), engines.sat_scan(x)):
            assert isinstance(run.time_units, int)


def test_witness_is_minimal_four_vars(std):
    # sentences using all four variables (seven tokens: four leaves,
    # three binary connectives)
    checked = 0
    for x in enumerate_formulas(std, 4, max_tokens=7, alpha=4):
        clone, n = _compacted_clone(x)
        assert n == 4
        witness = engines.sat_scan(x).payload
        if witness is None:
            assert all(evaluate(clone, m, n) == 0 for m in range(16))
        else:
            assert evaluate(clone, witness, n) == 1
            assert all(evaluate(clone, m, n) == 0 for m in range(witness))
        checked += 1
    assert checked == 960


@pytest.mark.parametrize("n", [1, 2, 3])
def test_costs_on_a_key_are_the_costs_on_its_sentences(std, n):
    # a key (alpha, f, class) carries all that the cost models read; the
    # scan's time is checked here against evaluate, not against the key
    for x in enumerate_formulas(std, n, max_tokens=6):
        clone, alpha = _compacted_clone(x)
        key = sentence_key(x)
        assert key == (var_count_alpha(x), size_f(x), compact_model_set(x).bits)
        first = next((m for m in range(1 << alpha) if evaluate(clone, m, alpha)), 1 << alpha)
        assert engines.sat_scan(key) == engines.sat_scan(x)
        assert engines.sat_scan(key).time_units == size_f(x) * (first + 1)
        assert engines.tabulate(key) == engines.tabulate(x)
        assert engines.tabulate(key).payload == compact_model_set(x)
        assert engines.rewrite_cost(key).time_units == size_f(x)


@pytest.mark.parametrize("table", ["standard", "nand", "nor-only"])
def test_negated_key_is_the_key_of_the_negation(table):
    tab = {"standard": ConnectiveTable.standard(),
           "nand": ConnectiveTable.from_text("⊼ 2 1110\n"),
           "nor-only": ConnectiveTable.from_text("⊽ 2 1000\n")}[table]
    for x in enumerate_formulas(tab, 3, max_tokens=7):
        assert engines.negated_key(sentence_key(x), tab) == sentence_key(engines.negated(x))
    monotone = ConnectiveTable.from_text("∧ 2 0001\n∨ 2 0111\n")
    with pytest.raises(engines.NoNegation):
        engines.negated_key((1, 16, 2), monotone)
