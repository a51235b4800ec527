"""The mask kernel against a per-assignment evaluator, for every truth
table of arity 0 to 3, and the sampling walk's keys against the
evaluation of :mod:`avgsat.formula`."""

from itertools import product

import pytest

from avgsat import _kernel, formula, tables
from avgsat.commands import sampling
from oracle import walk_against_eval

# every truth table of arities 0..3: 2 + 4 + 16 + 256 slots
ARITIES = tuple(a for a in range(4) for _ in range(1 << (1 << a)))
TTS = tuple(tt for a in range(4) for tt in range(1 << (1 << a)))


def truth(a, tt, bits):
    """The output on argument values ``bits``, the first the most significant."""
    r = 0
    for b in bits:
        r = (r << 1) | b
    return (tt >> r) & 1


def brute_apply(a, tt, args, n):
    """Mask of a connective applied to argument masks, one assignment at a time."""
    return sum(truth(a, tt, [(x >> m) & 1 for x in args]) << m for m in range(1 << n))


def brute_eval(codes, n, arities, tts):
    """Mask of an RPN code sequence, one assignment at a time."""
    mask = 0
    for m in range(1 << n):
        stack = []
        for c in codes:
            if c >= 0:
                stack.append((m >> c) & 1)
                continue
            a = arities[-c - 1]
            args = stack[len(stack) - a:]
            del stack[len(stack) - a:]
            stack.append(truth(a, tts[-c - 1], args))
        mask |= stack[-1] << m
    return mask


def argument_pool(n):
    """Argument masks: every mask at n = 1; otherwise the variables,
    their complements, the constants and two mixed masks."""
    full = (1 << (1 << n)) - 1
    if n == 1:
        return list(range(full + 1))
    vs = [_kernel.var_mask(i, n) for i in range(n)]
    return vs + [full ^ v for v in vs] + [0, full, 0b0110 << 1, full ^ 0b1001]


@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_anf_matches_truth_bits(a):
    # distinct sets of argument indices, whose ANDs XOR to the truth bit
    # of every argument tuple
    for tt in range(1 << (1 << a)):
        terms = _kernel._anf(a, tt)
        assert len(set(terms)) == len(terms)
        assert all(list(term) == sorted(set(term)) and set(term) <= set(range(a))
                   for term in terms)
        for bits in product((0, 1), repeat=a):
            value = sum(all(bits[k] for k in term) for term in terms) & 1
            assert value == truth(a, tt, bits), (tt, bits)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_apply_matches_brute_force(a, n):
    full = (1 << (1 << n)) - 1
    pool = argument_pool(n)
    if a == 3 and n > 1:
        pool = pool[::2]
    for tt in range(1 << (1 << a)):
        anf = _kernel._anf(a, tt)
        for args in product(pool, repeat=a):
            assert _kernel._apply(anf, args, full) == brute_apply(a, tt, args, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eval_mask_matches_brute_force(n):
    # each slot on every labelling of its leaves, and nested as the first
    # argument of the next slot
    for j, a in enumerate(ARITIES):
        nxt = (j + 1) % len(ARITIES)
        b = ARITIES[nxt]
        for leaves in product(range(n), repeat=a):
            inner = (*leaves, -j - 1)
            sentences = [inner]
            if b:
                sentences.append(inner + tuple(i % n for i in range(1, b)) + (-nxt - 1,))
            for codes in sentences:
                assert formula.eval_mask(codes, n, ARITIES, TTS) == \
                    brute_eval(codes, n, ARITIES, TTS), codes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_binary_coefficients_match_brute_force(n):
    # the walk applies a binary slot as (full & c0) ^ (x & cx) ^ (y & cy)
    # ^ (x & y & cxy), x the first argument, from slot_runs
    full = (1 << (1 << n)) - 1
    pool = argument_pool(n)
    [(_, _, ops)] = sampling.slot_runs((2,) * 16, tuple(range(16)))
    for tt, coefficients in enumerate(ops):
        c0, cx, cy, cxy = coefficients
        assert set(coefficients) <= {0, -1}
        for x, y in product(pool, repeat=2):
            assert (full & c0) ^ (x & cx) ^ (y & cy) ^ (x & y & cxy) == \
                brute_apply(2, tt, (x, y), n), (tt, x, y)


def test_walk_matches_eval_over_every_binary_connective():
    # XOR, XNOR, the constants and the projections among them
    walk_against_eval(tables.all_of_arity(2), 3, 5)


def test_walk_matches_eval_with_a_ternary_connective():
    # binary runs split by a ternary slot (if-then-else, which tells its
    # arguments apart), which keeps the generic path
    table = tables.from_text("⊕ 2 0110\n? 3 01010011\n→ 2 1101\n¬ 1 10\n")
    assert [a for a, *_ in sampling.slot_runs(table.arities, table.truth_bits)] == [2, 3, 2, 1]
    walk_against_eval(table, 3, 6)
