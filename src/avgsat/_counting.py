"""Counting kernel: sentence spaces counted by a dynamic program over
subtrees instead of enumerated.

A request over several classes counts once (:func:`sentence_keys`).
Conventions are those of :mod:`avgsat._kernel`.  This module is loaded
only when a sentence space is built or counted.
"""

import math
from functools import lru_cache
from itertools import product
from operator import add, mul, sub

from ._kernel import _anf, _apply, alpha_count, completion_counts, var_mask
from .errors import ClassUncovered, MeasureError


@lru_cache(maxsize=None)
def _butterflies(size):
    """Slice pairs (lo, hi) for each level of a transform over ``size``
    masks: hi holds the masks of lo with that level's bit set."""
    pairs = []
    h = 1
    while h < size:
        pairs += [(slice(s, s + h), slice(s + h, s + 2 * h)) for s in range(0, size, 2 * h)]
        h *= 2
    return tuple(pairs)


def _zeta(v, step=add):
    """In place: v[m] becomes the sum of v over the supersets of m; with
    ``step=sub``, the inverse (Moebius) transform."""
    for lo, hi in _butterflies(len(v)):
        v[lo] = map(step, v[lo], v[hi])


def _binary_family(tt):
    """How the binary connective with truth bits ``tt`` combines masks
    by superset sums: (view a, view b, flip) such that it is
    flip XOR (lit(a) AND lit(b)), where view 0 keeps an argument, view 1
    negates it and view None replaces it by true.  All binary
    connectives but XOR and XNOR, constants and projections among them,
    are of this form; for those two it returns None."""
    lit = lambda view, x: 1 if view is None else x ^ view
    return next(((va, vb, flip)
                 for va in (0, 1, None) for vb in (0, 1, None) for flip in (0, 1)
                 if tt == sum((flip ^ (lit(va, r >> 1) & lit(vb, r & 1))) << r
                              for r in range(4))), None)


class SentenceCounts:
    """Sentences over exactly n variables, counted by token count, number
    of variable tokens and truth-table mask, without enumerating them.

    Only canonical sentences are counted: those whose variables first
    appear in the order p0, p1, ..., p(n-1).  Every sentence over exactly
    n variables is one canonical sentence with its variables renamed, in
    exactly one way.

    The count is a dynamic program over subtrees.  State (t, ki, ko)
    holds the subtrees of t tokens that, with ki variables introduced to
    their left, introduce the next ko - ki and use no others.
    ``tab[t][ki, ko]`` maps each mask to the packed counts of such
    subtrees: the number with l variable tokens is the l-th
    ``width``-bit digit (Kronecker substitution), so combining two
    states costs one integer product per pair of masks.

    While there are at most 256 masks (n <= 3), binary connectives that
    are a possibly negated AND of literals, constants or projections
    combine states by superset sums (zeta) rather than mask pairs: a
    product per mask and one Moebius inversion per state.  Other
    connectives, XOR and XNOR among them, and all connectives over more
    masks, loop over the nonzero entries of their children, which takes
    no more steps than there are sentences, and apply their algebraic
    normal form (``_kernel._apply``) to each choice of masks.
    """

    def __init__(self, n, arities, tts, max_tokens):
        self.n, self.arities = n, arities
        self.size = 1 << (1 << n)
        self.full = self.size - 1
        # no count exceeds the number of valid sequences of its length
        cnt = completion_counts(n, arities, max(max_tokens, 0))
        self.sequences = [row[0] for row in cnt]  # of each length
        self.width = max(1, max(self.sequences).bit_length())
        self.anfs = [_anf(a, tt) for a, tt in zip(arities, tts)]
        # (view a, view b) -> [plain, negated] multiplicities of the
        # connectives combined by superset sums, whose indices are in summed
        self.families, self.summed = {}, set()
        if self.size <= 256:
            for j, (a, tt) in enumerate(zip(arities, tts)):
                family = _binary_family(tt) if a == 2 else None
                if family is not None:
                    self.families.setdefault(family[:2], [0, 0])[family[2]] += 1
                    self.summed.add(j)
        self.tab = [{}]  # no subtree has 0 tokens
        self._views = {}
        self._split_memo = {}

    def work(self):
        """An estimate, before counting, of the steps that counting every
        length up to the token budget takes, from the sequence totals of
        the completion table and the 2^(2^n) masks a state may hold.

        At length t, the connectives that loop over entries combine one
        entry per child, each child holding at most one entry per mask
        and per sequence of its length, and make no more combinations
        than there are sequences of t tokens; a combination works on
        masks of 2^n bits.  A connective summed over supersets costs
        each split one product of mask-long vectors, taken as 4 steps per
        mask.  Every step handles packed counts of up to t digits of
        ``width`` bits, d 64-bit words, and costs d^1.2 (rounded up): long
        products grow faster than their length.  Fitted to NOT/AND/OR,
        whose steps took 47 to 70 ns at n = 3; a step of the 16 binary
        connectives took up to 230 ns and of one ternary connective
        under 4 ns, a spread of 50 or more between tables.
        """
        S = self.sequences
        entries = [min(self.size, s) for s in S]
        loops = [a for j, a in enumerate(self.arities) if a and j not in self.summed]
        # choices[a][t]: one entry for each of a children of t tokens in all
        choices = {1: entries}
        for a in range(2, max(loops, default=1) + 1):
            choices[a] = [sum(entries[u] * choices[a - 1][t - u] for u in range(1, t))
                          for t in range(len(S))]
        words = 1 + (1 << self.n) // 64  # of a mask
        steps = 0
        for t in range(2, len(S)):
            pairs = min(S[t], sum(choices[a][t - 1] for a in loops))
            vectors = len(self.families) * (t - 2) * self.size
            steps += (pairs * words + 4 * vectors) * math.ceil((1 + t * self.width / 64) ** 1.2)
        return steps

    def extend(self):
        """Count the subtrees of one token more than counted so far."""
        t, n = len(self.tab), self.n
        states = {}
        for ki in range(n + 1):
            for ko in range(ki, n + 1):
                out = {}
                if t == 1:  # p(ki) introduces a variable; p0..p(ki-1) reuse one
                    for v in [ki] if ko == ki + 1 else range(ki) if ko == ki else ():
                        out[var_mask(v, n)] = 1 << self.width
                for j, a in enumerate(self.arities):
                    if j in self.summed:
                        continue
                    anf = self.anfs[j]
                    for children in self._splits(a, t - 1, ki, ko):
                        for masks, p in self._entries(children):
                            m = _apply(anf, masks, self.full)
                            out[m] = out.get(m, 0) + p
                if self.families:
                    self._combine_binary(t, ki, ko, out)
                if out:
                    states[ki, ko] = out
        self.tab.append(states)

    def keys(self, k, depth):
        """Key (k, size f, mask) -> number of the canonical sentences
        over k <= n variables within ``depth`` tokens: state (0, k), whose
        masks over n variables hold the class over k in their first 2^k
        bits.  A canonical sentence's mask is its class, and f = 8 * (2 *
        tokens - 1 + variable tokens) while every variable is p0..p9."""
        low = (1 << self.width) - 1
        own = (1 << (1 << k)) - 1
        count = {}
        for t in range(1, depth + 1):
            for m, p in self.tab[t].get((0, k), {}).items():
                f = 8 * (2 * t - 1)  # digit l: the sentences of l variable tokens, f + 8 * l
                while p:
                    if p & low:
                        key = (k, f, m & own)
                        count[key] = count.get(key, 0) + (p & low)
                    p >>= self.width
                    f += 8
        return count

    def _splits(self, a, t, ki, ko):
        """Each way to give a subtrees, in order, t tokens in all and the
        variables ki..ko-1 to introduce: tuples of nonempty states."""
        key = (a, t, ki, ko)
        splits = self._split_memo.get(key)
        if splits is None:
            if a == 0:
                splits = [()] if (t, ki) == (0, ko) else []
            elif a == 1:  # the last subtree takes what is left
                splits = [((t, ki, ko),)] if (ki, ko) in self.tab[t] else []
            else:
                splits = [((t1, ki, k1), *rest)
                          for t1 in range(1, t - a + 2) for k1 in range(ki, ko + 1)
                          if (ki, k1) in self.tab[t1]
                          for rest in self._splits(a - 1, t - t1, k1, ko)]
            self._split_memo[key] = splits
        return splits

    def _entries(self, children):
        """(masks, packed count) for each choice of one mask per child."""
        tables = [self.tab[s][k0, k1].items() for s, k0, k1 in children]
        if len(tables) == 1:
            return (((m,), q) for m, q in tables[0])
        return ((tuple(m for m, _ in entries), math.prod(q for _, q in entries))
                for entries in product(*tables))

    def _view(self, state, view):
        """A state's superset sums of counts per mask, under a view of
        its argument (see ``_binary_family``)."""
        key = (*state, view)
        v = self._views.get(key)
        if v is None:
            t, ki, ko = state
            counts = self.tab[t][ki, ko]
            if view is None:
                v = [sum(counts.values())] * self.size
            else:
                v = [counts.get(m, 0) for m in range(self.size)]
                if view == 1:
                    v.reverse()  # mask m becomes its complement full ^ m
                _zeta(v)
            self._views[key] = v
        return v

    def _combine_binary(self, t, ki, ko, out):
        sums = {}  # family -> its transformed counts, summed over splits
        for a, b in self._splits(2, t - 1, ki, ko):
            for family in self.families:
                x = map(mul, self._view(a, family[0]), self._view(b, family[1]))
                acc = sums.get(family)
                sums[family] = list(x) if acc is None else list(map(add, acc, x))
        for family, v in sums.items():
            _zeta(v, sub)
            plain, negated = self.families[family]
            for m in range(self.size):
                c = plain * v[m] + negated * v[self.full ^ m]
                if c:
                    out[m] = out.get(m, 0) + c


def _check_vars(n: int) -> None:
    # sizes are counted as 8 * (2 * tokens - 1 + variable tokens), which
    # holds while every variable is p0..p9
    if not 1 <= n <= 10:
        raise MeasureError(f"sentence spaces need 1 to 10 variables, got {n}")


# The largest token budget of a counted space: its completion table
# alone holds max_tokens^2 integers.
MAX_TOKENS = 200
# The most steps (SentenceCounts.work) a counted space may take.  On 2
# vCPUs (Python 3.11), with NOT/AND/OR, 1.4e8 at n = 3 within 40 tokens
# took 5.2 s, 3.1e8 at n = 4 within 12 took 3.2 s and 3.7e8 at n = 3
# within 50 took 17 s; 5.2e8 at n = 5 within 11 (6.9 s) and 1.5e9 at
# n = 4 within 13 are refused.  Steps are not time across tables: the 16
# binary connectives at n = 3 within 24 tokens (3.0e8) are admitted and
# took 27 to 41 s.
MAX_WORK = 4 * 10 ** 8


def sentence_keys(table, ns, max_tokens: int, cover: bool = False) -> dict[tuple, int]:
    """Key (k, size f, class mask) -> number of the canonical sentences
    over exactly k variables of ``table`` (a connective table; see
    :meth:`SentenceCounts.keys`) within ``max_tokens`` tokens, for each
    class k of ``ns``, all read off one count of the largest.  With
    ``cover``, each class stops at the smallest depth at which it
    inhabits all 2^(2^k) model classes, and the count when all do; a
    class short at ``max_tokens`` raises ClassUncovered.

    Before counting it refuses, in this order, a class outside 1 to 10
    variables, a budget past ``MAX_TOKENS`` and, without ``cover``, a
    class with no sentence within it (``_kernel.alpha_count``;
    ClassUncovered) and a count whose estimated steps pass ``MAX_WORK``."""
    ns = sorted(set(ns))
    for n in ns:
        _check_vars(n)
    if max_tokens > MAX_TOKENS:
        raise MeasureError(f"sentence spaces hold at most {MAX_TOKENS} tokens, got {max_tokens}")
    n = ns[-1]  # the class counted
    counts = SentenceCounts(n, table.arities, table.truth_bits, max_tokens)
    if not cover:  # a covering count stops at its own depth, mostly far short of the cap
        for k in ns:
            if not alpha_count(table.arities, k, max_tokens):
                raise ClassUncovered(f"alpha-class {k} has no sentence within "
                                     f"{max_tokens} tokens")
        if counts.work() > MAX_WORK:
            raise MeasureError(f"counting the sentences over {n} variables within {max_tokens} "
                               f"tokens would take more than the {MAX_WORK:.0e} steps a "
                               "count may take")
    depth = dict.fromkeys(ns, max_tokens)
    short = {k: set() for k in ns} if cover else {}  # class -> its masks so far
    for t in range(1, max_tokens + 1):
        counts.extend()
        for k, seen in list(short.items()):
            # every stored entry counts at least one sentence, and a mask
            # over n variables repeats its class over k: as many masks as classes
            seen.update(counts.tab[t].get((0, k), ()))
            if len(seen) == 1 << (1 << k):
                depth[k] = t
                del short[k]
        if cover and not short:
            break
    if short:
        k = min(short)
        raise ClassUncovered(f"only {len(short[k])} of {1 << (1 << k)} model classes "
                             f"within {max_tokens} tokens")
    return {key: c for k in ns for key, c in counts.keys(k, depth[k]).items()}
