import inspect
import itertools
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from avgsat import _kernel, analytic, measure, moments, tables
from avgsat.commands.markov_tail import MarkovTail
from avgsat.commands.property_2_2 import HRow
from avgsat.formula import (Connective, ConnectiveTable, Formula, MalformedRpn,
                            ModelSet, UnknownSymbol, VariableOutOfRange,
                            compact_model_set, enumerate_formulas, evaluate,
                            leaf_sequence, model_set, parse_rpn, render,
                            size_f, stratify_min_layers, truth, var_count_alpha)


# --- random-formula strategy ------------------------------------------

def _flatten(tree, table):
    codes = []

    def walk(node):
        if isinstance(node, int):
            codes.append(node)
        else:
            slot, children = node
            for child in children:
                walk(child)
            codes.append(-slot - 1)

    walk(tree)
    return Formula(tuple(codes), table)


@st.composite
def std_formulas(draw, max_vars=3):
    table = ConnectiveTable.standard()
    var = st.integers(min_value=0, max_value=max_vars - 1)
    tree = st.recursive(
        var,
        lambda sub: st.one_of(
            st.tuples(st.just(0), st.tuples(sub)),
            st.tuples(st.sampled_from([1, 2]), st.tuples(sub, sub)),
        ),
        max_leaves=8)
    return _flatten(draw(tree), table)


# --- parsing and rendering --------------------------------------------

def test_parse_single_variable(std):
    x = parse_rpn("p0", std)
    assert x.codes == (0,)


def test_parse_binary(std):
    x = parse_rpn("p0 p1 ∨", std)
    assert x.codes == (0, 1, -3)
    assert render(x) == "p0 p1 ∨"


def test_parse_underflow(std):
    with pytest.raises(MalformedRpn):
        parse_rpn("p0 ∨", std)


def test_parse_leftover_operands(std):
    with pytest.raises(MalformedRpn):
        parse_rpn("p0 p1", std)


def test_parse_empty(std):
    with pytest.raises(MalformedRpn):
        parse_rpn("", std)


def test_parse_unknown_symbol(std):
    with pytest.raises(UnknownSymbol):
        parse_rpn("p0 p1 ⊕", std)


def test_formula_constructor_validates(std):
    with pytest.raises(MalformedRpn):
        Formula((0, -2), std)  # AND with one operand
    with pytest.raises(MalformedRpn):
        Formula((0, -99), std)  # no such slot


def test_formula_key_contract(std, all_binary):
    # the hash reads the codes only; equality still compares the table
    x = Formula((0, 1, -2), std)
    same = Formula((0, 1, -2), ConnectiveTable.standard())
    assert same.table is not std
    assert x == same and hash(x) == hash(same)
    other = Formula((0, 1, -2), all_binary)
    assert x != other
    assert {x: 1}.get(other) is None
    for obj in (x, ModelSet(1, 2)):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(FrozenInstanceError):
        x.codes = (0,)
    # a new name has no slot to go to; Python 3.11 reports this as a
    # TypeError from the frozen __setattr__, later versions as frozen
    with pytest.raises((FrozenInstanceError, TypeError)):
        x.note = "cached"
    assert not hasattr(x, "note")


_STD = ConnectiveTable.standard()

# Every immutable value type: fields for one value, fields for another,
# and fields that construction must refuse with ValueError (or None).
VALUE_TYPES = [
    (Connective, (0, 1, 2, "¬"), (0, 1, 1, "¬"), (0, 1, 4, "¬")),
    (Formula, ((0,), _STD), ((0, 0, -2), _STD), None),
    (ModelSet, (1, 2), (1, 3), (1, 16)),
    (measure.BoundRow, (1, Q(1, 2), Q(1), True), (1, Q(1, 2), Q(1), False), None),
    (HRow, ("chi_1", Q(1), Q(2), True), ("chi_2", Q(1), Q(2), True), None),
    (MarkovTail, (Q(3), Q(1, 2), Q(1, 4), True), (Q(3), Q(1, 2), Q(1, 3), True), None),
    (analytic.Census, (1, 2, 3), (1, 2, 4), None),
    (analytic.Totals, (1, 2, Q(1, 3)), (1, 2, Q(2, 3)), None),
    (analytic.MinExpectation, (1, Q(7, 4), None, Q(3, 2)), (1, Q(7, 4), Q(7, 4), Q(3, 2)),
     None),
    (moments.MomentSum, (2, Q(6), Q(1, 10), 8), (2, Q(6), Q(1, 10), 16), None),
    (analytic.ConstantComparison, (189, 197, Q(8, 197)), (190, 197, Q(7, 197)), None),
    (analytic.ChainStep, ("a", Q(1), Q(2), True), ("b", Q(1), Q(2), True), None),
    (analytic.TabulatorBound, (1, Q(1), Q(1), True, (), Q(1)),
     (2, Q(1), Q(1), True, (), Q(1)), None),
]


@pytest.mark.parametrize("cls, fields, other, bad", VALUE_TYPES,
                         ids=[row[0].__name__ for row in VALUE_TYPES])
def test_value_types_compare_by_fields_and_stay_frozen(cls, fields, other, bad):
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*other) != a and not cls(*other) == a
    for name, value in zip(inspect.signature(cls).parameters, other):
        with pytest.raises(AttributeError):   # FrozenInstanceError is one
            setattr(a, name, value)
    assert a == b and pickle.loads(pickle.dumps(a)) == a
    if bad is not None:
        with pytest.raises(ValueError):
            cls(*bad)


def test_formula_hash_tells_not_from_and(std):
    # CPython hashes -1 (NOT) like -2 (AND); the sentence hash must not
    assert hash(Formula((0, 1, -2, -1), std)) != hash(Formula((0, 1, -1, -2), std))
    sentences = list(enumerate_formulas(std, 2, max_tokens=7))
    assert len({hash(x) for x in sentences}) == len(sentences) == 2278


@given(std_formulas())
def test_round_trip(x):
    assert parse_rpn(render(x), x.table) == x


# --- size and variable count ------------------------------------------

def test_size_simple(std):
    assert size_f(parse_rpn("p0", std)) == 16


def test_size_counts_rendering_characters(std):
    x = parse_rpn("p0 p1 ∨", std)
    assert len(render(x)) == 7
    assert size_f(x) == 56


def test_size_multidigit_variable(std):
    assert size_f(parse_rpn("p10", std)) == 24


@given(std_formulas())
def test_size_matches_rendering(x):
    assert size_f(x) == 8 * len(render(x))


@given(std_formulas())
def test_alpha_lower_bounds_size(x):
    assert 8 * var_count_alpha(x) <= size_f(x)


def test_alpha(std):
    assert var_count_alpha(parse_rpn("p0 p0 ∧", std)) == 1
    assert var_count_alpha(parse_rpn("p0 p1 ∨", std)) == 2
    assert var_count_alpha(parse_rpn("p3", std)) == 1


# --- evaluation and model sets ------------------------------------------

def test_evaluate(std):
    x = parse_rpn("p0 p1 ∨", std)
    assert evaluate(x, 0, 2) == 0
    assert evaluate(x, 1, 2) == 1
    contra = parse_rpn("p0 p0 ¬ ∧", std)
    assert all(evaluate(contra, m, 1) == 0 for m in range(2))


def test_evaluate_range_errors(std):
    x = parse_rpn("p1", std)
    with pytest.raises(VariableOutOfRange):
        evaluate(x, 0, 1)
    with pytest.raises(ValueError):
        evaluate(x, 4, 2)


def test_model_set_examples(std):
    assert set(model_set(parse_rpn("p0", std), 1).members()) == {1}
    assert model_set(parse_rpn("p0 p0 ¬ ∧", std), 2).is_empty
    assert set(model_set(parse_rpn("p0 p1 ∨", std), 2).members()) == {1, 2, 3}


@given(std_formulas(), st.integers(min_value=0, max_value=7))
def test_model_set_agrees_with_evaluate(x, m):
    n = 3
    assert (m in model_set(x, n)) == bool(evaluate(x, m, n))


def test_model_set_exhaustive_agreement(std, all_binary):
    ternary = ConnectiveTable(tables.all_of_arity(3).connectives[::17])
    constants = tables.from_text("⊤ 0 1\n⊥ 0 0\n→ 2 1101\n")
    for table, n, max_tokens in ((std, 2, 5), (all_binary, 2, 5),
                                 (ternary, 3, 4), (constants, 2, 4)):
        for x in enumerate_formulas(table, n, max_tokens=max_tokens):
            K = model_set(x, n)
            for m in range(1 << n):
                assert (m in K) == bool(evaluate(x, m, n)), (table, x, m)


def test_compact_model_set_cache_is_bounded():
    # keying every sentence of an enumeration adds one entry each; the
    # bound stays above the 38,152 entries of the n = 3 covering sentences
    # of the standard table and their negations
    maxsize = compact_model_set.cache_info().maxsize
    assert maxsize is not None and maxsize >= 38_152


def test_compact_model_set_permutes_variables(std):
    # p1 AND NOT p0; first appearance maps p1 -> 0, p0 -> 1
    x = parse_rpn("p1 p0 ¬ ∧", std)
    K = compact_model_set(x)
    assert K.n == 2
    assert set(K.members()) == {1}
    # against an explicit first-appearance renaming
    renamed = parse_rpn("p0 p1 ¬ ∧", std)
    assert model_set(renamed, 2).bits == K.bits


def test_model_set_complement(std):
    K = model_set(parse_rpn("p0 p1 ∧", std), 2)
    assert set(K.complement().members()) == {0, 1, 2}
    assert K.complement().complement() == K


def test_var_mask_definition():
    for n in range(1, 7):
        for i in range(n):
            mask = _kernel.var_mask(i, n)
            for m in range(1 << n):
                assert ((mask >> m) & 1) == ((m >> i) & 1)


def test_model_set_width_validation():
    with pytest.raises(ValueError):
        ModelSet(1, 16)


# --- enumeration --------------------------------------------------------

def test_enumerate_single_token(std):
    assert [render(x) for x in enumerate_formulas(std, 1, max_tokens=1)] == ["p0"]


def test_enumerate_requires_some_limit(std):
    with pytest.raises(ValueError):
        list(enumerate_formulas(std, 1))


def test_enumerate_shortlex_order(std):
    seen = list(enumerate_formulas(std, 2, max_tokens=5))
    lengths = [len(x.codes) for x in seen]
    assert lengths == sorted(lengths)
    by_len = {}
    for x in seen:
        by_len.setdefault(len(x.codes), []).append(x.codes)
    for codes in by_len.values():
        # token order: variables ascending, then connectives by slot;
        # codes encode connectives negatively, so compare via keys
        keys = [tuple((0, c) if c >= 0 else (1, -c - 1) for c in cs)
                for cs in codes]
        assert keys == sorted(keys)


def test_enumerate_counts_match_path_dp(std):
    # the completion-count DP against the enumeration it prunes, and
    # both against every token string filtered by the Formula constructor
    def valid(codes):
        try:
            Formula(codes, std)
        except MalformedRpn:
            return False
        return True

    alphabet = (0, 1, -1, -2, -3)
    cnt = _kernel.completion_counts(2, std.arities, 8)
    for length in range(1, 9):
        got = sum(1 for x in enumerate_formulas(std, 2, max_tokens=length)
                  if len(x.codes) == length)
        assert got == cnt[length][0]
        if length <= 6:
            brute = sum(1 for codes in itertools.product(alphabet,
                                                         repeat=length)
                        if valid(codes))
            assert brute == got


def test_enumerate_exactly_once(std):
    seen = list(enumerate_formulas(std, 2, max_tokens=6))
    assert len(seen) == len(set(seen))


def test_enumerate_round_trip_depth7(std):
    for x in enumerate_formulas(std, 2, max_tokens=7):
        assert parse_rpn(render(x), std) == x


def test_enumerate_alpha_filter(std):
    for x in enumerate_formulas(std, 2, max_tokens=6, alpha=2):
        assert var_count_alpha(x) == 2


def test_distinct_model_sets_bounded(std):
    for n, depth in ((1, 4), (2, 8)):
        classes = set()
        for x in enumerate_formulas(std, n, max_tokens=depth):
            classes.add(model_set(x, n).bits)
            assert len(classes) <= 2 ** (2 ** n)
        assert len(classes) == 2 ** (2 ** n)


def test_enumerate_exact_connectives(all_binary):
    forms = list(enumerate_formulas(all_binary, 2, exact_connectives=1))
    assert len(forms) == 64  # 16 connectives * 4 leaf labelings
    assert all(len(x.codes) == 3 for x in forms)


# --- stratification -----------------------------------------------------

def test_stratify_shorter_equivalent_wins(std):
    a = parse_rpn("p0", std)
    b = parse_rpn("p0 p0 ∧", std)
    layers = stratify_min_layers([b, a], 1)
    assert layers == [[a], [b]]


def test_stratify_inequivalent_single_layer(std):
    a = parse_rpn("p0", std)
    b = parse_rpn("p0 ¬", std)
    assert stratify_min_layers([a, b], 1) == [[a, b]]


def test_stratify_full_n1_enumeration(std):
    space = list(enumerate_formulas(std, 1, max_tokens=4))
    layers = stratify_min_layers(space, 1)
    assert len(layers[0]) == 4  # one per Boolean function of one variable
    # layers partition the space, one member per class per layer
    flat = [x for layer in layers for x in layer]
    assert sorted(map(render, flat)) == sorted(map(render, space))
    for layer in layers:
        keys = [model_set(x, 1).bits for x in layer]
        assert len(keys) == len(set(keys))
    # sizes never decrease across layers within a class
    history = {}
    for layer in layers:
        for x in layer:
            key = model_set(x, 1).bits
            assert history.get(key, 0) <= size_f(x)
            history[key] = size_f(x)


# --- connective tables ---------------------------------------------------

def test_all_binary_is_complete_and_distinct(all_binary):
    assert len(all_binary) == 16
    assert len({c.bits for c in all_binary.connectives}) == 16
    assert all(c.arity == 2 for c in all_binary.connectives)


def test_all_up_to_two():
    t = tables.all_up_to(2)
    assert len(t) == 4 + 16
    with pytest.raises(ValueError):
        tables.all_up_to(4)


def test_table_text_round_trip(std, all_binary):
    for table in (std, all_binary):
        assert tables.from_text(tables.to_text(table)) == table


def test_table_from_file(tmp_path, std):
    path = tmp_path / "table.txt"
    path.write_text("# comment line\n" + tables.to_text(std), encoding="utf-8")
    assert tables.from_file(path) == std


def test_table_validation():
    with pytest.raises(ValueError):
        ConnectiveTable([])
    nn = Connective(0, 1, 1, "¬")
    with pytest.raises(ValueError):
        ConnectiveTable([nn, Connective(0, 2, 1, "∧")])  # dup id
    with pytest.raises(ValueError):
        ConnectiveTable([nn, Connective(1, 1, 2, "¬")])  # dup symbol
    with pytest.raises(ValueError, match="single characters"):
        ConnectiveTable([Connective(0, 1, 1, "p1")])  # shadows a variable


def test_connective_truth():
    land = ConnectiveTable.standard().connectives[1]
    assert [truth(land, (a, b)) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 1]


def test_table_text_refuses_bad_truth_bits_by_line():
    # the arity is compared with the bits before it sizes an integer:
    # 10^8 built a 12.5 MB int, and -1 ended in "negative shift count"
    import tracemalloc
    for text, message in [("¬ 1 10\n∧ 2 0021\n", "line 2: truth bits must be 0/1"),
                          ("\n¬ 1 1x\n", "line 2: truth bits must be 0/1"),
                          ("¬ 1 101\n", "line 1: need 2 truth bits"),
                          ("¬ 1 10\nx 100000000 0\n",
                           "line 2: arity 100000000 needs more than 1 truth bits"),
                          ("x 2 01\n", "line 1: arity 2 needs more than 2 truth bits"),
                          ("x -1 1\n", "line 1: arity must be a non-negative integer"),
                          ("x 1.5 01\n", "line 1: arity must be a non-negative integer"),
                          (f"x {'9' * 5000} 0\n",  # past int's digit limit
                           "line 1: arity must be a non-negative integer")]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{message}$"):
                tables.from_text(text)
            assert tracemalloc.get_traced_memory()[1] < 10 ** 5
        finally:
            tracemalloc.stop()


def test_negation_strategy_matches_truth():
    # a unary NOT first; else a symmetric binary connective that negates
    # a duplicated operand (NAND or NOR); else none
    unary, binary = tables.all_of_arity(1), tables.all_of_arity(2)
    for c in (*unary.connectives, *binary.connectives):
        negates = all(truth(c, (b,) * c.arity) == 1 - b for b in (0, 1))
        symmetric = c.arity == 1 or truth(c, (0, 1)) == truth(c, (1, 0))
        expected = ("not" if c.arity == 1 else "dup", 0) if negates and symmetric else None
        assert ConnectiveTable([c]).negation_strategy() == expected, c
    both = ConnectiveTable([binary.connectives[14], unary.connectives[2]])  # NAND, NOT
    assert both.negation_strategy() == ("not", 1)


def test_leaf_sequence(std):
    assert leaf_sequence(parse_rpn("p0 p1 ¬ ∧ p0 ∨", std)) == (0, 1, 0)


# --- independent semantic oracle -----------------------------------------

@st.composite
def std_trees(draw, max_vars=3):
    table = ConnectiveTable.standard()
    var = st.integers(min_value=0, max_value=max_vars - 1)
    tree = draw(st.recursive(
        var,
        lambda sub: st.one_of(
            st.tuples(st.just(0), st.tuples(sub)),
            st.tuples(st.sampled_from([1, 2]), st.tuples(sub, sub)),
        ),
        max_leaves=8))
    return tree, _flatten(tree, table)


def _tree_truth(tree, m):
    """Reference semantics: recursive evaluation on the tree itself."""
    if isinstance(tree, int):
        return (m >> tree) & 1
    slot, children = tree
    vals = [_tree_truth(c, m) for c in children]
    if slot == 0:
        return 1 - vals[0]
    if slot == 1:
        return vals[0] & vals[1]
    return vals[0] | vals[1]


@given(std_trees(), st.integers(min_value=0, max_value=7))
def test_evaluate_matches_recursive_reference(pair, m):
    tree, x = pair
    assert evaluate(x, m, 3) == _tree_truth(tree, m)


def test_model_set_exhaustive_agreement_four_vars(std):
    # wider assignment space: every sentence over four variables
    for x in enumerate_formulas(std, 4, max_tokens=5):
        K = model_set(x, 4)
        for m in range(16):
            assert (m in K) == bool(evaluate(x, m, 4))
