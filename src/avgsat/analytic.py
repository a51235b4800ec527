"""Closed forms.

Catalan-style sentence shape counts, exact censuses of sentences with
a fixed number of connectives, the expected first-witness identity for
the satisfiability scanner, and the key space of the shortest-code
(information-theoretic lower bound) model for the tabulation cost
analysis.  The geometric moment sums live with their command,
:mod:`avgsat.commands.moments`; the closed form of the cubic bound on
the shortest-code model, which no command runs, is the tests' oracle.

Everything returns exact integers or rationals; floats are rendering
only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


# G(0), G(1), ... as far as gamma_count has been asked
_GAMMA = [1]


def gamma_count(N: int) -> int:
    """Number of shapes of sentences built from N binary connectives.

    Defined by the convolution recursion G(0) = 1,
    G(n+1) = sum of G(i) * G(n-i) over i = 0..n.  The counts are kept
    and extended, so asking for every N up to N_max takes about N_max^2
    steps in all.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    g = _GAMMA
    for n in range(len(g) - 1, N):
        g.append(sum(g[i] * g[n - i] for i in range(n + 1)))
    return g[N]


def catalan_binomial(N: int) -> int:
    """Independent closed form: binomial(2N, N) / (N + 1)."""
    return math.comb(2 * N, N) // (N + 1)


def sentence_count(N: int) -> int:
    """Sentences with exactly N binary connectives over a fixed pool of
    N+1 variables, one representative per nonempty variable subset:
    shapes * 16^N connective choices * (2^(N+1) - 1) subsets.
    """
    return gamma_count(N) * 16 ** N * (2 ** (N + 1) - 1)


def _census_length(n_vars, arities, length, counts):
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

    The shape count is read from ``counts``, a
    ``_kernel.completion_counts(1, arities, L)`` table with
    ``L >= length``.

    Returns (count, sum_pow2_alpha) where the second component is the
    sum of 2^alpha over counted sentences.
    """
    distinct = set(arities)
    if len(distinct) != 1 or 0 in distinct:
        raise ValueError("the closed-form census needs every connective "
                         "of one arity a >= 1")
    (a,) = distinct
    shapes = counts[length][0]
    leaves = length - (length - 1) // a
    subsets = [math.comb(n_vars, s) for s in range(1, min(leaves, n_vars) + 1)]
    return (shapes * sum(subsets),
            shapes * sum(c << s for s, c in enumerate(subsets, start=1)))


class Census(namedtuple("Census", "N count pow2_alpha_sum")):
    """Counts of the canonical sentences with exactly N connectives: how
    many, and the sum of 2^alpha over them."""

    __slots__ = ()

    @property
    def read_total(self) -> int:
        """Total symbol-reading time: 2N+1 symbols per sentence."""
        return (2 * self.N + 1) * self.count

    @property
    def tabulate_total(self) -> int:
        """Total tabulation time: (2N+1) * 2^alpha per sentence."""
        return (2 * self.N + 1) * self.pow2_alpha_sum


def censuses(N_max: int, arities: tuple[int, ...] = (2,) * 16) -> list[Census]:
    """The censuses of N = 0..N_max connectives: the canonical sentences
    with exactly N connectives over variables p0..pN, counted by the
    closed form of ``_census_length``.

    ``arities`` are those of the table's connectives (default: the 16
    binary ones).  They must all be one arity ``a >= 1``, so that every
    such sentence has ``N * a + 1`` tokens; otherwise ``ValueError``.
    Only the arities are read, so no table is built.  Every shape count
    is read from one completion table up to the longest length: its
    entries are exact for ``r + d <= length + 1``, so its depth-0 column
    holds the count at every shorter length too."""
    if N_max < 0:
        return []
    from . import _kernel
    a = max(arities)
    counts = _kernel.completion_counts(1, arities, N_max * a + 1)
    return [Census(N, *_census_length(N + 1, arities, N * a + 1, counts))
            for N in range(N_max + 1)]


class Totals(namedtuple("Totals", "read_total tabulate_total ratio")):
    """The census's read and tabulation totals, and their ratio
    tabulate/read scaled by (2N+1)^(-p)."""

    __slots__ = ()


def totals_and_ratio(N: int, p: int) -> Totals:
    """Closed-form totals for the exact-N-connective census and the
    per-N term of the expected-cost series under length-power-law
    weights: (3^(N+1)-1)/(2^(N+1)-1) * (2N+1)^(-p).
    """
    base = (2 * N + 1) * gamma_count(N) * 16 ** N
    read = base * (2 ** (N + 1) - 1)
    tab = base * (3 ** (N + 1) - 1)
    ratio = Fraction(3 ** (N + 1) - 1, 2 ** (N + 1) - 1) / (2 * N + 1) ** p
    return Totals(read, tab, ratio)


class MinExpectation(namedtuple("MinExpectation", "n closed brute nonempty_sum")):
    """Expected (first witness + 1) for the satisfiability scanner over
    all subsets of {0..2^n-1} with equal probability.

    ``brute`` scans every subset (n <= 4); ``closed`` is
    2 - 2^(-2^n); ``nonempty_sum`` drops the empty set's 2^n + 1 term
    (the series as usually displayed).  All are below 2.
    """

    __slots__ = ()


def expected_min_plus_one(n: int) -> MinExpectation:
    if n < 0:
        raise ValueError("n must be non-negative")
    M = 1 << n
    S = 1 << M  # number of subsets
    closed = 2 - Fraction(1, S)
    # one division of the integer numerators, not one Fraction per term
    nonempty = Fraction(sum(i << (M - i) for i in range(1, M + 1)), S)
    brute = None
    if n <= 4:
        total = 0
        for K in range(S):
            m = M  # empty set: every assignment tried, plus the read
            for i in range(M):
                if (K >> i) & 1:
                    m = i
                    break
            total += m + 1
        brute = Fraction(total, S)
        if brute != closed:
            raise AssertionError(
                f"brute force {brute} disagrees with closed form {closed} at n={n}")
    return MinExpectation(n, closed, brute, nonempty)


# --- shortest-code model ----------------------------------------------


def shannon_lengths(n: int) -> list[tuple[int, int]]:
    """Information-theoretic lower-bound sizes for one layer of
    pairwise-inequivalent sentences on n variables, as (code length,
    number of slots) pairs.

    A layer holds one sentence per Boolean function, 2^(2^n) in all;
    the least possible multiset of bit sizes takes every code of each
    length 1..2^n - 1 and fills the remaining two slots at length 2^n.
    """
    top = 1 << n
    return [(i, 1 << i) for i in range(1, top)] + [(top, 2)]


def shannon_space(ns: list[int]):
    """An input space of shortest-code keys for several layer sizes.

    Key (n, length) stands for the layer's slots of that code length; f
    is the length and alpha is n, so its tabulation cost is
    :func:`avgsat.engines.tabulate`, 2^n * length.  Returns the space and
    its per-class uniform weights (each slot 1/2^(2^n) of its class,
    mass 1 on each class).
    """
    from . import measure  # loaded only by the commands that check the model
    count = {(n, length): slots
             for n in ns for length, slots in shannon_lengths(n)}
    mu = {key: Fraction(slots, 1 << (1 << key[0])) for key, slots in count.items()}
    return measure.InputSpace(count), mu
