"""The mask kernel against a per-assignment evaluator, for every truth
table of arity 0 to 3."""

from itertools import product

import pytest

from avgsat import _kernel

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
def test_minority_rows_match_truth_bits(a):
    for tt in range(1 << (1 << a)):
        rows, flip = _kernel._minority_rows(a, tt)
        assert 2 * len(rows) <= 1 << a
        listed = set()
        for ones, zeros in rows:
            assert sorted(ones + zeros) == list(range(a))
            listed.add(sum(1 << (a - 1 - k) for k in ones))
        assert len(listed) == len(rows)
        assert listed == {r for r in range(1 << a) if (tt >> r) & 1 != flip}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_apply_matches_brute_force(a, n):
    full = (1 << (1 << n)) - 1
    pool = argument_pool(n)
    if a == 3 and n > 1:
        pool = pool[::2]
    for tt in range(1 << (1 << a)):
        rows, flip = _kernel._minority_rows(a, tt)
        for args in product(pool, repeat=a):
            assert _kernel._apply(rows, flip, args, full) == brute_apply(a, tt, args, n)


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
                assert _kernel.eval_mask(codes, n, ARITIES, TTS) == \
                    brute_eval(codes, n, ARITIES, TTS), codes
