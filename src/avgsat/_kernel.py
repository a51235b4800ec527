"""Enumeration, evaluation and counting kernels over RPN code sequences.

Conventions:

* A sentence is a sequence of integer token codes: ``code >= 0`` is the
  propositional variable with that index; ``code < 0`` is the connective
  in table slot ``-code - 1``.
* Connective slot ``j`` has arity ``arities[j]`` and packed truth bits
  ``tts[j]``: bit ``r`` of ``tts[j]`` is the output for the argument
  tuple whose binary reading (most-significant bit = first argument)
  is ``r``.
* A connective is applied to masks only through its algebraic normal
  form, ``_anf``: every evaluation here, the counting DP's and the
  sampling walk's read it.
* A truth-table mask over ``n`` variables is an integer whose bit ``m``
  is set iff assignment ``m`` satisfies the sentence, where variable
  ``i`` reads bit ``i`` of ``m`` (least-significant bit is variable 0).
* The enumeration order is shortlex: token count first, then
  lexicographic with variables (by index) before connectives (by slot).
* Every count of valid sequences comes from one table,
  ``completion_counts``.
"""

import math
from collections import Counter
from functools import lru_cache, partial


def var_mask(i, n):
    """Mask over 2^n assignments whose bit m is set iff bit i of m is set."""
    half = 1 << i
    mask = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << n
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=None)
def _var_masks(n):
    return tuple(var_mask(i, n) for i in range(n))


@lru_cache(maxsize=None)
def _anf(a, tt):
    """The algebraic normal form (Zhegalkin polynomial) of the connective
    of arity ``a`` with truth bits ``tt``: the sets of argument indices
    whose ANDs the connective XORs, the empty set being the constant 1.
    Bit ``s`` of the Moebius transform of the truth bits says whether
    the set read as ``s`` (most-significant bit = first argument) is a
    term."""
    for i in range(a):
        # each row with bit i set takes the XOR of the row without it
        tt ^= (tt & ~var_mask(i, a)) << (1 << i)
    return tuple(tuple(k for k in range(a) if s >> (a - 1 - k) & 1)
                 for s in range(1 << a) if tt >> s & 1)


def _apply(anf, args, full):
    """Mask of a connective, given as ``_anf`` gives it, applied to
    argument masks whose all-true mask is ``full``."""
    acc = 0
    for term in anf:
        t = full
        for k in term:
            t &= args[k]
        acc ^= t
    return acc


@lru_cache(maxsize=None)
def slot_runs(arities, tts):
    """The connective slots of a table as runs of consecutive slots of
    one arity: (arity, first slot, number of slots, one entry per slot),
    read from each slot's ``_anf``.  A binary slot's entry is the
    coefficients (c0, cx, cy, cxy) of its terms, each -1 or 0, such that
    it is ``(full & c0) ^ (x & cx) ^ (y & cy) ^ (x & y & cxy)`` with ``x``
    the first argument, for a caller to apply in place; any other
    slot's is ``_apply`` bound to its form."""
    runs = []
    for j, (a, tt) in enumerate(zip(arities, tts)):
        anf = _anf(a, tt)
        op = (tuple(-(term in anf) for term in ((), (0,), (1,), (0, 1))) if a == 2
              else partial(_apply, anf))
        if runs and runs[-1][0] == a:
            runs[-1][2].append(op)
        else:
            runs.append((a, j, [op]))
    return tuple((a, first, len(ops), tuple(ops)) for a, first, ops in runs)


def eval_mask(codes, n, arities, tts):
    """Truth-table mask of an RPN code sequence over n variables."""
    full = (1 << (1 << n)) - 1
    vmasks = _var_masks(n)
    stack = []
    for c in codes:
        if c >= 0:
            stack.append(vmasks[c])
            continue
        a = arities[-c - 1]
        args = stack[len(stack) - a:]
        del stack[len(stack) - a:]
        stack.append(_apply(_anf(a, tts[-c - 1]), args, full))
    return stack[-1]


def compact_codes(codes):
    """(codes, alpha): the codes with their variables renumbered 0, 1, ...
    in order of first appearance, and the number of distinct variables."""
    slot = {}
    return [slot.setdefault(c, len(slot)) if c >= 0 else c for c in codes], len(slot)


def eval_mask_compact(codes, arities, tts):
    """Mask over the sentence's own variables, compacted by first appearance.

    Returns (mask, alpha) where alpha is the number of distinct variables.
    """
    remapped, alpha = compact_codes(codes)
    return eval_mask(remapped, alpha, arities, tts), alpha


def completion_counts(n_vars, arities, length):
    """cnt[r][d]: valid completions from stack depth d in exactly r tokens.

    A completion ends with exactly one value on the stack.  Entries with
    ``r + d <= length + 1`` are exact, which covers every state a
    sequence of at most ``length`` tokens passes through.
    """
    by_arity = Counter(arities).items()
    cnt = [[0] * (length + 2) for _ in range(length + 1)]
    cnt[0][1] = 1
    for r in range(1, length + 1):
        prev = cnt[r - 1]
        row = cnt[r]
        for d in range(length + 1):
            total = n_vars * prev[d + 1]
            for a, mult in by_arity:
                if d >= a:
                    total += mult * prev[d - a + 1]
            row[d] = total
    return cnt


def max_leaves(arities, max_tokens):
    """The most variable tokens in a valid sequence of at most
    ``max_tokens`` tokens, or 0 when there is none.

    A sequence with ``c_a`` connectives of each arity ``a`` has
    ``1 + sum(c_a * a)`` tokens and ``1 + sum(c_a * (a - 1))`` variable
    tokens, in any valid order, so this is an unbounded knapsack of
    capacity ``max_tokens - 1`` over the arities of at least 2.
    """
    if max_tokens < 1:
        return 0
    wide = {a for a in arities if a >= 2}
    best = [0] * max_tokens   # best[w]: most leaves past the first, at weight <= w
    for w in range(1, max_tokens):
        best[w] = max([best[w - 1]] + [best[w - a] + a - 1 for a in wide if a <= w])
    return 1 + best[-1]


def length_range(arities, max_tokens, exact_connectives):
    """The token counts of the sentences with at most ``max_tokens``
    tokens and/or exactly ``exact_connectives`` connective tokens."""
    if max_tokens is None and exact_connectives is None:
        raise ValueError("need a max token count or an exact connective count")
    if exact_connectives is not None:
        if exact_connectives < 0:
            raise ValueError("connective count must be non-negative")
        lo = exact_connectives + 1 + exact_connectives * (min(arities) - 1)
        hi = exact_connectives + 1 + exact_connectives * (max(arities) - 1)
        if max_tokens is not None:
            hi = min(hi, max_tokens)
        return range(max(lo, 1), hi + 1)
    return range(1, max_tokens + 1)


def enumerate_length(n_vars, arities, length, exact_conns=-1, alpha=-1):
    """All valid RPN code sequences of exactly ``length`` tokens, in
    lexicographic order.

    ``exact_conns`` (if >= 0) keeps only sentences with that many
    connective tokens; ``alpha`` (if >= 0) keeps only sentences with
    that many distinct variables.  Returns a list of (codes, alpha)
    pairs.
    """
    cnt = completion_counts(n_vars, arities, length)
    n_conns = len(arities)
    out = []
    codes = []

    def rec(depth, used, conns_used):
        pos = len(codes)
        if pos == length:
            a_x = bin(used).count("1")
            if alpha >= 0 and a_x != alpha:
                return
            if exact_conns >= 0 and conns_used != exact_conns:
                return
            out.append((tuple(codes), a_x))
            return
        rem = length - pos - 1
        if exact_conns >= 0 and conns_used + rem + 1 < exact_conns:
            return
        if cnt[rem][depth + 1]:
            for v in range(n_vars):
                codes.append(v)
                rec(depth + 1, used | (1 << v), conns_used)
                codes.pop()
        if exact_conns >= 0 and conns_used >= exact_conns:
            return
        for j in range(n_conns):
            a = arities[j]
            if depth >= a and cnt[rem][depth - a + 1]:
                codes.append(-j - 1)
                rec(depth - a + 1, used, conns_used + 1)
                codes.pop()

    rec(0, 0, 0)
    return out


def census_length(n_vars, arities, length, counts=None):
    """Count the canonical sentences of exactly ``length`` tokens over
    ``n_vars`` variables, in closed form.

    A sentence is canonical when its leaves carry the lexicographically
    smallest labeling that uses its variable set: repeats of the
    smallest variable, then each remaining one once in increasing
    order.  Each connective-labelled shape with ``k`` leaves thus has
    one canonical labeling per nonempty subset of at most ``k`` of the
    variables.  With every connective of one arity ``a >= 1``, a
    sentence of ``length`` tokens has ``k = length - (length - 1) / a``
    leaves; other tables raise ``ValueError``.

    The shape count is read from ``counts``, a ``completion_counts(1,
    arities, L)`` table with ``L >= length`` (built here if None).

    Returns (count, sum_pow2_alpha) where the second component is the
    sum of 2^alpha over counted sentences.
    """
    distinct = set(arities)
    if len(distinct) != 1 or 0 in distinct:
        raise ValueError("the closed-form census needs every connective "
                         "of one arity a >= 1")
    (a,) = distinct
    if counts is None:
        counts = completion_counts(1, arities, length)
    shapes = counts[length][0]
    leaves = length - (length - 1) // a
    subsets = [math.comb(n_vars, s) for s in range(1, min(leaves, n_vars) + 1)]
    return (shapes * sum(subsets),
            shapes * sum(c << s for s, c in enumerate(subsets, start=1)))
